// Command tool is the fixture's non-test caller of package lib.
package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() { fmt.Println(lib.Used()) }
