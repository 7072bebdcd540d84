module intsched/bench

go 1.22

require intsched v0.0.0

replace intsched => ../
