module bayou/bench

go 1.24

require bayou v0.0.0

replace bayou => ../
