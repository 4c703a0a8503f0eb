// Command globalsmain: a main package runs once per process, so its
// package-level flags and state are out of the analyzer's scope.
package main

var verbose bool

func main() {
	verbose = true
	_ = &verbose
}
