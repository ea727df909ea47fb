module github.com/daiet/daiet/benchmark

go 1.24

require github.com/daiet/daiet v0.0.0

replace github.com/daiet/daiet => ../
