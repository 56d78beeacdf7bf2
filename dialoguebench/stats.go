package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"hash/fnv"
	"math"
	"sort"
	"time"

	"ist"
)

// Seed streams: every input of the benchmark is drawn from its own stream of
// the workload seed, so adding a draw to one stream never shifts another.
const (
	streamUtility uint64 = iota + 1
	streamSlice
	streamAlgorithm
	streamClient
)

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// subSeed derives the seed of item i of a stream from the workload seed.
func subSeed(seed int64, stream uint64, i int64) int64 {
	return int64(splitmix(splitmix(uint64(seed)^stream<<56) ^ uint64(i)))
}

// miss is the latency recorded for a refused or failed request: it sorts
// above every real latency, so a failure counts against every percentile.
var miss = math.Inf(1)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the nearest-rank quantile of xs (0 for no samples). A quantile
// that lands on a miss reports missMS instead of +Inf, so the output stays
// valid JSON while still reading as far beyond any real latency.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	if math.IsInf(s[i], 1) {
		return missMS
	}
	return s[i]
}

// missMS is the client's per-attempt timeout, the longest a request can wait.
const missMS = 10_000

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// windowRate is the median, over the consecutive windows of a phase, of the
// dialogues completed per second in each: a burst of noise on the shared
// host moves one window rather than the whole figure.
func windowRate(perWindow [windows]int64, span time.Duration) float64 {
	counts := make([]float64, windows)
	for i, c := range perWindow {
		counts[i] = float64(c)
	}
	return median(counts) / (span / windows).Seconds()
}

// hist counts latencies in buckets 0.1% wide from histMinMS up, so that a
// timed phase's memory does not grow with the requests it makes and
// peak_rss_mb measures the program rather than the benchmark's samples. A
// quantile reads as its bucket's geometric midpoint, within 0.05% of the
// sample it stands for; the mean is exact.
type hist struct {
	counts []uint32
	misses uint64
	n      uint64
	sum    float64
}

const (
	histMinMS  = 1e-3
	histGrowth = 1.001
)

var histBuckets = int(math.Log(missMS/histMinMS)/math.Log(histGrowth)) + 1

func newHist() *hist { return &hist{counts: make([]uint32, histBuckets)} }

func (h *hist) add(ms float64) {
	h.n++
	if math.IsInf(ms, 1) {
		h.misses++
		h.sum += missMS
		return
	}
	h.sum += ms
	i := 0
	if ms > histMinMS {
		i = min(int(math.Log(ms/histMinMS)/math.Log(histGrowth)), len(h.counts)-1)
	}
	h.counts[i]++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.misses += o.misses
	h.n += o.n
	h.sum += o.sum
}

// mean is the mean latency (0 for no samples); a miss counts as missMS, so
// one failed request in ten thousand adds a millisecond.
func (h *hist) mean() float64 { return ratio(h.sum, float64(h.n)) }

// quantile is the nearest-rank p-quantile (0 for no samples); one that lands
// on a miss reads missMS, as quantile does.
func (h *hist) quantile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := max(uint64(math.Ceil(p*float64(h.n))), 1)
	var seen uint64
	for i, c := range h.counts {
		if seen += uint64(c); seen >= rank {
			return histMinMS * math.Pow(histGrowth, float64(i)+0.5)
		}
	}
	return missMS
}

// transcript accumulates one dialogue's questions, answers and result into a
// hash, so runs can be compared dialogue for dialogue without storing them.
type transcript struct {
	h         hash.Hash64
	questions int
}

func newTranscript() *transcript { return &transcript{h: fnv.New64a()} }

func (t *transcript) vec(v []float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(len(v)))
	t.h.Write(b[:])
	for _, x := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		t.h.Write(b[:])
	}
}

// question records one asked pair and the simulated user's answer.
func (t *transcript) question(p, q []float64, preferFirst bool) {
	t.vec(p)
	t.vec(q)
	if preferFirst {
		t.h.Write([]byte{1})
	} else {
		t.h.Write([]byte{2})
	}
	t.questions++
}

// pinned is the record of a dialogue that belongs to the fixed dialogue list
// every run of a seed completes.
type pinned struct {
	num        int64
	questions  int
	sum        uint64
	vsLower    float64
	hasVsLower bool
}

func (t *transcript) finish(num int64, result []float64, bandSize, k int) pinned {
	t.vec(result)
	p := pinned{num: num, questions: t.questions, sum: t.h.Sum64()}
	if lo, _ := ist.TheoryBounds(bandSize, k); lo > 0 {
		p.vsLower, p.hasVsLower = float64(t.questions)/lo, true
	}
	return p
}

// recorded counts the pinned dialogues recorded in ps.
func recorded(ps []pinned) int {
	n := 0
	for _, p := range ps {
		if p.num != 0 {
			n++
		}
	}
	return n
}

// digest folds the recorded pinned dialogues, in dialogue order, into one hex
// string along with their mean question count and mean questions over the
// Thm 3.2 lower bound.
func digest(ps []pinned) (hexsum string, qmean, vsLower float64) {
	h := sha256.New()
	var b [8]byte
	var qs, ratios []float64
	for _, p := range ps {
		if p.num == 0 {
			continue
		}
		binary.LittleEndian.PutUint64(b[:], uint64(p.num))
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], p.sum)
		h.Write(b[:])
		qs = append(qs, float64(p.questions))
		if p.hasVsLower {
			ratios = append(ratios, p.vsLower)
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:16]), mean(qs), mean(ratios)
}
