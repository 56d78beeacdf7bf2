package main

import "testing"

func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		k, want int
		alg     string
		ok      bool
	}{
		{20, 1, "rh", true},
		{20, 5, "rh", true},
		{20, 20, "hdpi", true},
		{20, 1, "2dpi", true},
		{1, 1, "hdpi-accurate", true},
		{0, 1, "rh", false},
		{-3, 1, "rh", false},
		{5, 8, "rh", false},
		{20, 21, "hdpi", false},
		{20, 0, "rh", false},
		{20, -2, "rh", false},
		{20, 5, "hdpi-accurate", false},
		{20, 5, "2dpi", false},
	} {
		err := checkFlags(c.k, c.want, c.alg)
		if (err == nil) != c.ok {
			t.Errorf("checkFlags(k=%d, want=%d, alg=%s) = %v, want ok=%v", c.k, c.want, c.alg, err, c.ok)
		}
	}
}
