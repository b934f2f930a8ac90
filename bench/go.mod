module symcluster/bench

go 1.22

require symcluster v0.0.0

replace symcluster => ../
