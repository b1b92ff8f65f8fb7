module supersim/benchmark

go 1.22

require supersim v0.0.0

replace supersim => ../
