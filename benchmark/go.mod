module github.com/paris-kv/paris/benchmark

go 1.24

require github.com/paris-kv/paris v0.0.0

replace github.com/paris-kv/paris => ../
