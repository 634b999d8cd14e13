module github.com/rtcl/bcp/bench

go 1.22

require github.com/rtcl/bcp v0.0.0

replace github.com/rtcl/bcp => ../
