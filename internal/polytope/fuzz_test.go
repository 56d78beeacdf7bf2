package polytope

import (
	"math"
	"testing"

	"ist/internal/geom"
	"ist/internal/lp"
)

// FuzzCutSequence applies arbitrary byte-derived cut sequences to a simplex
// and cross-checks the vertex representation against LP feasibility, plus
// the basic vertex invariants (on-simplex, satisfy all constraints). A
// second simplex takes the same cuts through cutRef, and after every cut
// the two must agree bit for bit.
func FuzzCutSequence(f *testing.F) {
	f.Add([]byte{3, 100, 20, 200, 90, 10}, uint8(3))
	f.Add([]byte{0, 0, 255, 255}, uint8(2))
	f.Add([]byte{128, 127, 129, 126, 130, 125, 131, 124}, uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, dRaw uint8) {
		d := int(dRaw)%4 + 2 // dimensions 2..5
		if len(data) < d || len(data) > 10*d {
			return
		}
		p, ref := NewSimplex(d), NewSimplex(d)
		var hs [][]float64
		for off := 0; off+d <= len(data); off += d {
			n := geom.NewVector(d)
			zero := true
			for i := 0; i < d; i++ {
				n[i] = (float64(data[off+i]) - 127.5) / 127.5
				if n[i] != 0 {
					zero = false
				}
			}
			if zero {
				continue
			}
			hs = append(hs, n)
			cutBoth(t, "fuzzed cut", p, ref, geom.Hyperplane{Normal: n})
		}
		for _, v := range p.Vertices() {
			if math.Abs(v.Sum()-1) > 1e-7 {
				t.Fatalf("vertex %v off the simplex", v)
			}
			if !p.Contains(v) {
				t.Fatalf("vertex %v violates a constraint", v)
			}
		}
		_, feasible := lp.FeasibleOverSimplex(hs, d)
		if !p.IsEmpty() && !feasible {
			t.Fatal("vertices exist but LP says infeasible")
		}
		if p.IsEmpty() && feasible {
			// Accept only when the LP region has no interior (the vertex
			// machinery may drop measure-zero slivers).
			if _, slack, ok := lp.InteriorPointOverSimplex(hs, d); ok && slack > 1e-7 {
				t.Fatal("polytope empty but LP region has interior")
			}
		}
	})
}
