package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one call into a layer, recorded from this benchmark's side of
// the boundary. Name is "<layer>.<operation>"; Req groups the spans of one
// request (a snapshot, or tenant/snapshot on the remote workload).
type span struct {
	ID     int
	Parent int // 0 for a root
	Name   string
	Req    string
	Lane   int // Chrome trace thread id; spans on one lane nest
	Start  time.Duration
	End    time.Duration
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// tracing switched off: every method is a no-op, so the untraced rounds
// run the same driver code without the bookkeeping.
type tracer struct {
	t0 time.Time

	// cur is the span a counting wrapper below the program (vfs, net)
	// charges its own spans to: the Repository call in flight on the
	// local workloads, the phase on the concurrent one.
	cur atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(name, req string, parent, lane int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Lane: lane, Start: now, End: -1})
	return id
}

// end closes a span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return s.End - s.Start
}

// enter makes id the span that wrappers below the program charge to and
// returns the previous one, for leave.
func (t *tracer) enter(id int) int {
	if t == nil {
		return 0
	}
	return int(t.cur.Swap(int64(id)))
}

func (t *tracer) leave(prev int) {
	if t != nil {
		t.cur.Store(int64(prev))
	}
}

func (t *tracer) current() int {
	if t == nil {
		return 0
	}
	return int(t.cur.Load())
}

// mark returns the number of spans recorded so far; since(mark) is what a
// round added.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) since(mark int) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[mark:]...)
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	Name  string
	Count int
	Busy  time.Duration // sum of span durations
	Self  time.Duration // busy minus the part covered by child spans
}

// layerTable folds spans by name. A span's self time is its duration minus
// the union of its children's intervals, clipped to the span.
func layerTable(spans []span) []layerRow {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := make(map[string]*layerRow)
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			rows[s.Name] = r
		}
		dur := s.End - s.Start
		r.Count++
		r.Busy += dur
		r.Self += dur - covered(s, children[s.ID])
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is the length of the union of kids' intervals inside parent.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	edge := parent.Start
	for _, k := range kids {
		if k.End < 0 {
			continue
		}
		lo, hi := k.Start, k.End
		if lo < edge {
			lo = edge
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			total += hi - lo
			edge = hi
		}
	}
	return total
}

// busy sums the durations of the spans named name.
func busy(spans []span, name string) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if s.Name == name && s.End >= 0 {
			d += s.End - s.Start
		}
	}
	return d
}

func printLayerTable(w io.Writer, title string, rows []layerRow) {
	fmt.Fprintf(w, "\n%s\n%-26s %8s %12s %12s\n", title, "span", "count", "busy_ms", "self_ms")
	for _, r := range rows {
		fmt.Fprintf(w, "%-26s %8d %12.3f %12.3f\n", r.Name, r.Count, ms(r.Busy), ms(r.Self))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// writeChrome writes the spans as Chrome trace-event JSON (open it in
// chrome://tracing or https://ui.perfetto.dev).
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		events = append(events, event{
			Name: s.Name, Cat: layer, Ph: "X",
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Pid: 1, Tid: s.Lane,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "req": s.Req},
		})
	}
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
