module cobra/bench

go 1.22

require cobra v0.0.0

replace cobra => ../
