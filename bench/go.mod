module lowdiff/bench

go 1.22

require lowdiff v0.0.0

replace lowdiff => ../
