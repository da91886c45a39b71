module freqdedup/bench

go 1.21

require freqdedup v0.0.0

replace freqdedup => ../
