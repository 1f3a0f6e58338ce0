module pert/bench

go 1.22

require pert v0.0.0

replace pert => ../
