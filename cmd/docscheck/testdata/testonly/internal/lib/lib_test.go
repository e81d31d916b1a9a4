package lib

import "testing"

func TestOnlyTested(t *testing.T) {
	Name("y").Close()
	if OnlyTested() != 1 {
		t.Fatal("OnlyTested")
	}
}
