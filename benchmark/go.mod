module qfusor/benchmark

go 1.23

require qfusor v0.0.0

replace qfusor => ../
