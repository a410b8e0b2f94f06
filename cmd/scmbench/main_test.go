package main

import "testing"

func TestRunSmallTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run")
	}
	if err := run(true, false, false, false, false, 200, 7, t.TempDir()); err != nil {
		t.Fatal(err)
	}
}

func TestRunSmallFigure5AndThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run")
	}
	if err := run(false, true, true, false, false, 40, 7, ""); err != nil {
		t.Fatal(err)
	}
}
