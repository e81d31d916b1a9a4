// Package lib is the fixture of the test-only-export walk.
package lib

import "fmt"

// Used is called by the cmd package: not reported.
func Used() string { return fmt.Sprint(Name("x")) }

// OnlyTested is called only by lib_test.go: reported.
func OnlyTested() int { return 1 }

// Name is a string that prints itself.
type Name string

// String satisfies fmt.Stringer, which fmt.Sprint calls: not reported.
func (n Name) String() string { return string(n) }

// Close has io.Closer's method name but not its signature: reported.
func (n Name) Close() {}
