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
	"time"

	"ist/internal/clock"
	"ist/internal/core"
	"ist/internal/faultinject"
)

// This file pins the complete outcome of fixed dialogue sets on two
// Car-like bands, the 20-skyband of a small catalog and an
// embed-slices-shaped 10-skyband: every question, every answer and the
// result of 32 dialogues per algorithm hash to a digest recorded from the
// reference implementation.
// A change to a stopping rule, a ranking helper or the polytope code that
// alters a single question or result, even one the other tests would
// accept as correct, moves the digest. Budgeted cases also hash their
// certificates, so the best-effort and panic-recovery exits are pinned too:
// a six- or 24-question budget, a flipped first answer, an oracle that
// panics at its fifth question, and a deadline on a clock that steps at
// every read, so the degradation ladder's step and the deadline exit land
// at fixed points of the dialogue. Persisted sessions are rebuilt by replaying
// their answer logs, so an unchanged question sequence is a recovery
// contract as well as a test.

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

// pinnedSliceK is the k of the embed-slices-shaped rows.
const pinnedSliceK = 10

// pinnedSlice is an embed-slices-shaped band: the 10-skyband of the 1,000
// tuples at the first indices of a seed-1 permutation of the 68,010-tuple
// Car-like catalog of seed 1, 356 points.
func pinnedSlice(t *testing.T) []Point {
	t.Helper()
	ds, err := DatasetByName("car", rand.New(rand.NewSource(1)), 68010, 4)
	if err != nil {
		t.Fatal(err)
	}
	slice := make([]Point, 0, 1000)
	for _, i := range rand.New(rand.NewSource(1)).Perm(len(ds.Points))[:1000] {
		slice = append(slice, ds.Points[i])
	}
	band := Preprocess(slice, pinnedSliceK)
	if len(band) != 356 {
		t.Fatalf("slice band has %d points, want 356", len(band))
	}
	return band
}

// pinnedRun runs one dialogue on band at k and returns its result indices
// and, for a budgeted run, its certificate (nil otherwise).
type pinnedRun func(band []Point, k int, num int64, o Oracle) ([]int, *Certificate)

// pinnedDigest runs the dialogues on band at k and returns the hex digest
// of their questions, answers, results, certificates and question counts.
func pinnedDigest(band []Point, k int, run pinnedRun) string {
	o := &digestOracle{h: sha256.New()}
	for num := int64(1); num <= pinnedDialogues; num++ {
		u := RandomUtility(rand.New(rand.NewSource(1000+num)), len(band[0]))
		o.user = NewUser(u)
		res, cert := run(band, k, num, o)
		o.int(-1)
		for _, i := range res {
			o.int(int64(i))
		}
		if cert != nil {
			o.certificate(cert)
		}
		o.int(int64(o.Questions()))
	}
	return hex.EncodeToString(o.h.Sum(nil))
}

func (o *digestOracle) certificate(c *Certificate) {
	certified := int64(0)
	if c.Certified {
		certified = 1
	}
	o.int(certified)
	o.int(int64(len(c.Reason)))
	o.h.Write([]byte(c.Reason))
	o.int(int64(c.Questions))
	o.int(int64(c.Candidates))
}

// panicAtFifth is an oracle that panics when asked its fifth question.
func panicAtFifth(o Oracle) Oracle {
	return &faultinject.Oracle{Inner: o, Plan: faultinject.Plan{PanicAt: 5}}
}

// flipFirst is an oracle that inverts its first answer, an erring user.
func flipFirst(o Oracle) Oracle {
	return &faultinject.Oracle{Inner: o, Plan: faultinject.Plan{FlipAt: 1}}
}

func TestPinnedDialogueDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other ports may fuse x*y+z into one FMA, which rounds differently
		// and so asks different questions; the digests are amd64's.
		t.Skipf("digests are recorded on amd64, not %s", runtime.GOARCH)
	}
	band := pinnedBand()
	single := func(newAlg func(seed int64) Algorithm) pinnedRun {
		return func(band []Point, k int, num int64, o Oracle) ([]int, *Certificate) {
			return []int{Solve(newAlg(num), band, k, o).Index}, nil
		}
	}
	multi := func(newAlg func(seed int64) MultiAlgorithm, want int) pinnedRun {
		return func(band []Point, k int, num int64, o Oracle) ([]int, *Certificate) {
			return newAlg(num).RunMulti(band, k, want, o), nil
		}
	}
	// budgeted runs a dialogue under b; wrap, when set, sits between the
	// algorithm and the digest.
	budgeted := func(newAlg func(seed int64) Algorithm, b Budget, wrap func(Oracle) Oracle) pinnedRun {
		return func(band []Point, k int, num int64, o Oracle) ([]int, *Certificate) {
			if wrap != nil {
				o = wrap(o)
			}
			res := SolveBudgeted(newAlg(num), band, k, o, b)
			return []int{res.Index}, res.Certificate
		}
	}
	budgetedMulti := func(newAlg func(seed int64) MultiAlgorithm, want int, b Budget, wrap func(Oracle) Oracle) pinnedRun {
		return func(band []Point, k int, num int64, o Oracle) ([]int, *Certificate) {
			if wrap != nil {
				o = wrap(o)
			}
			idx, cert := newAlg(num).RunMultiBudgeted(band, k, want, o, b)
			return idx, &cert
		}
	}
	// deadlined runs a dialogue under a deadline 1 s away on a fresh fake
	// clock that advances by step at every read.
	deadlined := func(newAlg func(seed int64) Algorithm, step time.Duration) pinnedRun {
		return func(band []Point, k int, num int64, o Oracle) ([]int, *Certificate) {
			start := time.Unix(1000, 0)
			fake := clock.NewFake(start)
			fake.SetStep(step)
			res := SolveBudgeted(newAlg(num), band, k, o, Budget{Deadline: start.Add(time.Second), Clock: fake})
			return []int{res.Index}, res.Certificate
		}
	}
	// robustAccurate is RobustHDPI on exact convex points, which the
	// facade does not export.
	robustAccurate := func(seed int64) Algorithm {
		return core.NewRobustHDPI(core.HDPIOptions{Mode: core.ConvexExact, Rng: rand.New(rand.NewSource(seed))})
	}
	// The baselines with a regret threshold run at ε = 0.05 and, for the
	// sorting pair, two tuples a display.
	utilityApprox := func(int64) Algorithm { return NewUtilityApprox(0.05) }
	sortingSimplex := func(seed int64) Algorithm { return NewSortingSimplex(2, 0.05, seed) }
	sortingRandom := func(seed int64) Algorithm { return NewSortingRandom(2, 0.05, seed) }
	six := Budget{MaxQuestions: 6}
	roomy := Budget{MaxQuestions: 64}
	allTopK := Budget{MaxQuestions: 24}
	type pinnedCase struct {
		name string
		run  pinnedRun
		want string
	}
	check := func(band []Point, k int, cases []pinnedCase) {
		for _, c := range cases {
			if got := pinnedDigest(band, k, c.run); got != c.want {
				t.Errorf("%s: digest %s, want %s", c.name, got, c.want)
			}
		}
	}
	check(band, pinnedK, []pinnedCase{
		{"RH", single(NewRH), "abb24c196dd8dd10769f8bfb38b71577ddcfc857087d99cdf566c1862a05a974"},
		{"HD-PI-accurate", single(NewHDPIAccurate), "30adf2bcba194b5b0c8b54ac8baeae9ff1258bd6598be68366917accfabbc1ce"},
		{"RobustHDPI", single(NewRobustHDPI), "b9172a5e13cfd55b06dc1c489715e24c7c669272db0501196b9a51b1d9e5d58a"},
		{"RH-SomeTopK", multi(NewRHMulti, pinnedWant), "35537bf29e2e7336688b0884aaeb4b35b63e0f73b8d1d89bd790eb318ec8cf9b"},
		{"HD-PI-SomeTopK", multi(NewHDPIMulti, pinnedWant), "e82b4169d68780c384497d15f27aba034ecf0966180a5df1d03a6e9c850ef509"},
		{"RH/max-6", budgeted(NewRH, six, nil), "5ef30c7de105182404ded4c4bbc00ce0aed3129fffcd027197d2df1366679cf2"},
		{"RH-SomeTopK/max-6", budgetedMulti(NewRHMulti, pinnedWant, six, nil), "0bfb75482c16fa35b2d77661bce9a1c11bf35504e284e20979e5c1f1414d7cb4"},
		{"HD-PI-SomeTopK/max-6", budgetedMulti(NewHDPIMulti, pinnedWant, six, nil), "4e9ccd4e75f0ac506c9f6677b1daba27b6e2948f35660b0304aa28039b90a8ed"},
		{"RH/panic-5", budgeted(NewRH, roomy, panicAtFifth), "53edde05e786b3390af6ef22eb652c43a1634437b016ffa7741b1e827cc338af"},
		{"RH-SomeTopK/panic-5", budgetedMulti(NewRHMulti, pinnedWant, roomy, panicAtFifth), "d50f2dd031f3cb98afdd801b6655b13d8276339c9bd378660f0a12e0ca28ee36"},
		{"HD-PI-sampling", single(NewHDPI), "5f35ada62cadcbff80974e316f5303764470084013d56a799240e621b089a129"},
		{"HD-PI-sampling/max-6", budgeted(NewHDPI, six, nil), "4785a3b28253631eefa8d1a66bca3497872308ffabf6054cf56817d45639b133"},
		{"HD-PI-sampling/flip-1", budgeted(NewHDPI, roomy, flipFirst), "7576c2bd7a82e10c12eb61b8f7109b794fa1036b745f8e1981124cb1d2a8b5e9"},
		{"HD-PI-AllTopK", multi(NewHDPIMulti, pinnedK), "53323555035b14fb41e321d7498a3ca0bc7348bb349ac807570ae2d475825e53"},
		{"HD-PI-AllTopK/max-24", budgetedMulti(NewHDPIMulti, pinnedK, allTopK, nil), "bbf97912c86bd817be51021897263b121a63e40543ad5395d83e8d580a14e2d5"},
		{"HD-PI-SomeTopK/panic-5", budgetedMulti(NewHDPIMulti, pinnedWant, roomy, panicAtFifth), "aa3647646c4d89d8716cf318867cdfaf3898b967337de00fdedab26abcfbd28c"},
		{"RobustHDPI/max-6", budgeted(NewRobustHDPI, six, nil), "5378c39d46f8ce5ecd75cbfacc780dd69aa9caf31a5cac8697d521362439ac04"},
		{"RobustHDPI/flip-1", budgeted(NewRobustHDPI, roomy, flipFirst), "b469890592e03ed9bdcf7ef1590717ada2f2c25b9ca108bae23b85b5237cddca"},
		{"RobustHDPI/panic-5", budgeted(NewRobustHDPI, roomy, panicAtFifth), "2ab67289a8efd6a721b2148d5bcde3496020b96752a8c0ce3e366bbf81a14871"},
		{"RobustHDPI-accurate/max-6", budgeted(robustAccurate, six, nil), "8b2ffb1c736edc6fac541aaaf66116a40a3fe4e3a8e834096f1d80c5849489c5"},
		// Deadline dialogues on a clock that steps at every read, so the
		// number and place of the clock reads decide where the deadline
		// lands. RH at 8 ms a read meets the deadline in one dialogue;
		// HD-PI sampling at 40 ms halves its stop-check cadence in all 32
		// and meets the deadline in 28; HD-PI accurate at 1 ms halves it in
		// all 32 and converges.
		{"RH/deadline-8ms", deadlined(NewRH, 8*time.Millisecond), "c4477adaa37709af284b49ce0821561b3abd59a6d37d99e3e6d490d816817073"},
		{"HD-PI-sampling/deadline-40ms", deadlined(NewHDPI, 40*time.Millisecond), "013993c58203a65fda0b9c74b7d5a50e7bb0fc420efe391cee94ee8cdf6c2050"},
		{"HD-PI-accurate/deadline-1ms", deadlined(NewHDPIAccurate, time.Millisecond), "b612b729602ad7c912f8e88edb569ad11bbaa9f104c5caea0082e2eabb7a80d7"},
		// The baselines that cut or classify polytopes.
		{"PreferenceLearning", single(NewPreferenceLearning), "fa111f73e75094a6269d27d6dd179365213707ebabdee6bde6c6c25a460d2282"},
		{"ActiveRanking", single(NewActiveRanking), "e47e88e596cff29a1056a68cc9002edcee8a51157ebe39a729a687fbe1e29024"},
		{"UtilityApprox", single(utilityApprox), "9b79063e83e4c1da9753c00f5f8c73b9fa60546bde5d4a14146328b5ae64321e"},
		{"Sorting-Simplex", single(sortingSimplex), "50586c6adf10b019bd01fa63ae93a7b037e7690b98913c8e858ecf9c1ab0a5da"},
		{"Sorting-Random", single(sortingRandom), "6c8e7500924a63cf10e82aa0ceb84ca9dc114f73cee778b2f15aee88bb4bd059"},
		{"UH-Random-Adapt", single(NewUHRandomAdapt), "1b7d2501e40f7b155cc385956704eacd37d9fd5498338002e1e0994a96d96069"},
		{"UH-Simplex-Adapt", single(NewUHSimplexAdapt), "8e8521e92d1ae374dd76972decd59d1a54eadc75be47f4de5b8d6383b3d2609a"},
	})
	// HD-PI on an embed-slices-shaped band, whose cells are many and small.
	// The AllTopK row (want = k) takes the V_d refinement in all 32
	// dialogues, and the panic row's certificate counts candidates over the
	// last stop check's vertices.
	accurateMulti := func(seed int64) MultiAlgorithm {
		return core.NewHDPI(core.HDPIOptions{Mode: core.ConvexExact, Rng: rand.New(rand.NewSource(seed))})
	}
	check(pinnedSlice(t), pinnedSliceK, []pinnedCase{
		{"HD-PI-accurate/slice", single(NewHDPIAccurate), "6f97f5e81ca42a51a773530a31f5289b7f86248879c4df27232792ecdf5c0736"},
		{"HD-PI-sampling/slice", single(NewHDPI), "f76871070849ecbbd21894213c6d09db443778649f7b25f2654bacecac308ad4"},
		{"HD-PI-accurate-AllTopK/slice", multi(accurateMulti, pinnedSliceK), "0fe0120b3e2e6c349c2c2cafdd0dc000208eecd72e0d4f112493283e24205422"},
		{"HD-PI-accurate/slice/panic-5", budgeted(NewHDPIAccurate, roomy, panicAtFifth), "7b28b3cdc7769f70496d3fdb09e7a8411f52706546bc79a6e26ad75c5665817d"},
	})
}
