package main

import "testing"

func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		k  int
		ok bool
	}{
		{20, true},
		{1, true},
		{0, false},
		{-1, false},
	} {
		if err := checkFlags(c.k); (err == nil) != c.ok {
			t.Errorf("checkFlags(k=%d) = %v, want ok=%v", c.k, err, c.ok)
		}
	}
}
