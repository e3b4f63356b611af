module kdb/bench

go 1.24

require kdb v0.0.0

replace kdb => ../
