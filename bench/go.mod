module smatch/bench

go 1.22

require smatch v0.0.0

replace smatch => ../
