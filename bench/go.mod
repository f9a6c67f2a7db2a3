module galactos/bench

go 1.24

require galactos v0.0.0

replace galactos => ../
