package main

import "testing"

func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		n, d, trials int
		ks           []int
		ok           bool
	}{
		{10000, 4, 10, []int{1, 20, 40}, true},
		{1, 1, 1, []int{1}, true},
		{-3, 4, 1, []int{1}, false},
		{0, 4, 1, []int{1}, false},
		{200, 0, 1, []int{1}, false},
		{200, -1, 1, []int{1}, false},
		{200, 4, 0, []int{1}, false},
		{200, 4, 1, []int{0}, false},
		{200, 4, 1, []int{20, -5}, false},
	} {
		if err := checkFlags(c.n, c.d, c.trials, c.ks); (err == nil) != c.ok {
			t.Errorf("checkFlags(n=%d, d=%d, trials=%d, k=%v) = %v, want ok=%v", c.n, c.d, c.trials, c.ks, err, c.ok)
		}
	}
}
