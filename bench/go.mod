module p3/bench

go 1.24

require p3 v0.0.0

replace p3 => ../
