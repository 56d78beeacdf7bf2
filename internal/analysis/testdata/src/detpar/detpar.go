// Package detpardata exercises the detpar analyzer.
package detpardata

import "sync"

func appendRace(items []int) []int {
	var out []int
	var wg sync.WaitGroup
	for range items {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out = append(out, 1) // want `append to captured out`
		}()
	}
	wg.Wait()
	return out
}

func counterRace(n int) int {
	total := 0
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			total += i // want `write to captured total`
		}(i)
	}
	wg.Wait()
	return total
}

func mapRace(keys []string) map[string]int {
	m := map[string]int{}
	var wg sync.WaitGroup
	for i := range keys {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m[keys[i]] = i // want `write to captured map m`
		}(i)
	}
	wg.Wait()
	return m
}

type tally struct{ n int }

func fieldRace(t *tally, n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t.n++ // want `field write on captured t`
		}()
	}
	wg.Wait()
}

func poolRace(n int) int {
	jobs := make(chan int)
	sum := 0
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				sum += i // want `write to captured sum`
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return sum
}

func slots(n int) []int {
	results := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = i * i // index-ordered slot: allowed
		}(i)
	}
	wg.Wait()
	return results
}

func orderedCommit(n int) []int {
	results := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = i * 2
		}(i)
	}
	wg.Wait()
	var kept []int
	for _, r := range results {
		kept = append(kept, r) // commit runs serialized on the caller: allowed
	}
	return kept
}

func guarded(n int) int {
	var mu sync.Mutex
	total := 0
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mu.Lock()
			total += i // held under mu: allowed (lock discipline is locksafe's job)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	return total
}

func locals(n int) []int {
	results := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			acc := 0
			for j := 0; j < i; j++ {
				acc += j // local to the goroutine: allowed
			}
			results[i] = acc
		}(i)
	}
	wg.Wait()
	return results
}

func sends(n int) <-chan int {
	ch := make(chan int, n)
	go func() {
		for i := 0; i < n; i++ {
			ch <- i // channel sends synchronize: allowed
		}
		close(ch)
	}()
	return ch
}

func suppressed(n int) int {
	done := 0
	go func() {
		//lint:ignore detpar progress hint only; a torn read is acceptable here
		done = n
	}()
	return done
}
