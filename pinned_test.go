package ist

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// This file pins the complete outcome of fixed dialogue sets on a Car-like
// band: every question, every answer and the result of 32 dialogues per
// algorithm hash to a digest recorded from the reference implementation.
// A change to a stopping rule, a ranking helper or the polytope code that
// alters a single question or result, even one the other tests would
// accept as correct, moves the digest.

// digestOracle answers as a truthful user and feeds each question and
// answer into a running hash.
type digestOracle struct {
	user *User
	h    hash.Hash
	buf  [8]byte
}

func (o *digestOracle) Prefer(p, q Point) bool {
	ans := o.user.Prefer(p, q)
	o.vector(p)
	o.vector(q)
	if ans {
		o.h.Write([]byte{1})
	} else {
		o.h.Write([]byte{2})
	}
	return ans
}

func (o *digestOracle) Questions() int { return o.user.Questions() }

func (o *digestOracle) vector(v Point) {
	for _, x := range v {
		o.int(int64(math.Float64bits(x)))
	}
}

func (o *digestOracle) int(x int64) {
	binary.LittleEndian.PutUint64(o.buf[:], uint64(x))
	o.h.Write(o.buf[:])
}

const (
	pinnedDialogues = 32
	pinnedK         = 20
	pinnedWant      = 5
)

// pinnedBand is the 20-skyband of a 2,000-tuple Car-like catalog.
func pinnedBand() []Point {
	return Preprocess(CarLike(rand.New(rand.NewSource(1)), 2000).Points, pinnedK)
}

// pinnedDigest runs the dialogues and returns the hex digest of their
// questions, answers, results and question counts. run returns the result
// indices of one dialogue.
func pinnedDigest(band []Point, run func(num int64, o Oracle) []int) string {
	o := &digestOracle{h: sha256.New()}
	for num := int64(1); num <= pinnedDialogues; num++ {
		u := RandomUtility(rand.New(rand.NewSource(1000+num)), len(band[0]))
		o.user = NewUser(u)
		res := run(num, o)
		o.int(-1)
		for _, i := range res {
			o.int(int64(i))
		}
		o.int(int64(o.Questions()))
	}
	return hex.EncodeToString(o.h.Sum(nil))
}

func TestPinnedDialogueDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other ports may fuse x*y+z into one FMA, which rounds differently
		// and so asks different questions; the digests are amd64's.
		t.Skipf("digests are recorded on amd64, not %s", runtime.GOARCH)
	}
	band := pinnedBand()
	single := func(newAlg func(seed int64) Algorithm) func(int64, Oracle) []int {
		return func(num int64, o Oracle) []int {
			return []int{Solve(newAlg(num), band, pinnedK, o).Index}
		}
	}
	cases := []struct {
		name string
		run  func(int64, Oracle) []int
		want string
	}{
		{"RH", single(NewRH), "abb24c196dd8dd10769f8bfb38b71577ddcfc857087d99cdf566c1862a05a974"},
		{"HD-PI-accurate", single(NewHDPIAccurate), "30adf2bcba194b5b0c8b54ac8baeae9ff1258bd6598be68366917accfabbc1ce"},
		{"RobustHDPI", single(NewRobustHDPI), "b9172a5e13cfd55b06dc1c489715e24c7c669272db0501196b9a51b1d9e5d58a"},
		{"RH-SomeTopK", func(num int64, o Oracle) []int {
			return NewRHMulti(num).RunMulti(band, pinnedK, pinnedWant, o)
		}, "35537bf29e2e7336688b0884aaeb4b35b63e0f73b8d1d89bd790eb318ec8cf9b"},
	}
	for _, c := range cases {
		if got := pinnedDigest(band, c.run); got != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.want)
		}
	}
}
