package main

import (
	"net"
	"os"
	"sync/atomic"
	"time"

	"freqdedup/internal/vfs"
)

// ioCounts is a snapshot of a counting wrapper's counters.
type ioCounts struct {
	WriteBytes, Writes int64
	ReadBytes, Reads   int64
	Syncs              int64
	SyncTime           time.Duration
}

func (a ioCounts) sub(b ioCounts) ioCounts {
	return ioCounts{
		WriteBytes: a.WriteBytes - b.WriteBytes, Writes: a.Writes - b.Writes,
		ReadBytes: a.ReadBytes - b.ReadBytes, Reads: a.Reads - b.Reads,
		Syncs: a.Syncs - b.Syncs, SyncTime: a.SyncTime - b.SyncTime,
	}
}

type counters struct {
	writeBytes, writes atomic.Int64
	readBytes, reads   atomic.Int64
	syncs, syncNanos   atomic.Int64
}

func (c *counters) snapshot() ioCounts {
	return ioCounts{
		WriteBytes: c.writeBytes.Load(), Writes: c.writes.Load(),
		ReadBytes: c.readBytes.Load(), Reads: c.reads.Load(),
		Syncs: c.syncs.Load(), SyncTime: time.Duration(c.syncNanos.Load()),
	}
}

// countFS is the vfs.FS passed with WithFileSystem in the traced rounds:
// the real filesystem, with every read, write and sync counted and every
// sync recorded as a span under the Repository call that caused it.
type countFS struct {
	vfs.FS
	counters
	tr *tracer
}

func newCountFS(tr *tracer) *countFS { return &countFS{FS: vfs.OS, tr: tr} }

func (c *countFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, fs: c}, nil
}

func (c *countFS) Open(name string) (vfs.File, error) {
	f, err := c.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, fs: c}, nil
}

type countFile struct {
	vfs.File
	fs *countFS
}

func (f *countFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.fs.reads.Add(1)
	f.fs.readBytes.Add(int64(n))
	return n, err
}

func (f *countFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	f.fs.writes.Add(1)
	f.fs.writeBytes.Add(int64(n))
	return n, err
}

func (f *countFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.writes.Add(1)
	f.fs.writeBytes.Add(int64(n))
	return n, err
}

func (f *countFile) Sync() error {
	id := f.fs.tr.begin("vfs.sync", "", f.fs.tr.current(), laneVFS)
	start := time.Now()
	err := f.File.Sync()
	f.fs.syncNanos.Add(int64(time.Since(start)))
	f.fs.syncs.Add(1)
	f.fs.tr.end(id)
	return err
}

// countListener is the net.Listener handed to RepoServer.Serve in the
// traced rounds: it counts what the server reads from and writes to its
// connections.
type countListener struct {
	net.Listener
	counters
}

func (l *countListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countConn{Conn: c, l: l}, nil
}

type countConn struct {
	net.Conn
	l *countListener
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.reads.Add(1)
	c.l.readBytes.Add(int64(n))
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.l.writes.Add(1)
	c.l.writeBytes.Add(int64(n))
	return n, err
}
