module vinfra/bench

go 1.22

require vinfra v0.0.0

replace vinfra => ../
