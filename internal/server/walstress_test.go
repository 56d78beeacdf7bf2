package server

import (
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"testing"
	"time"

	"ist"
	"ist/internal/clock"
	"ist/internal/faultinject"
	"ist/internal/wal"
)

// TestWALStoreCrashRestartStress is the end-to-end durability stress: N
// sessions answer concurrently over HTTP while the fault-injecting
// filesystem kills the WAL store at a random operation mid-flight. Creates
// and answers persist first, so once the disk is dead the server refuses
// them (503) rather than serve state it cannot record. The interesting
// part is the restart: a new store over the restarted filesystem
// rehydrates whatever was durably acknowledged, every recovered session is
// driven to completion by the same simulated user, and the final answer is
// certified against that user's hidden utility vector. Run under -race,
// this also hammers the store's locking from many goroutines.
func TestWALStoreCrashRestartStress(t *testing.T) {
	band, k, _ := testBand(t)
	const sessions = 4
	for _, seed := range []int64{11, 12, 13} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			crashAt := 1 + rng.Intn(250)
			fs := faultinject.NewFS(faultinject.FSPlan{CrashAtOp: crashAt})
			walOpts := WALOptions{
				Fsync:         wal.SyncAlways,
				SnapshotEvery: 8,
				SegmentBytes:  512,
				Clock:         clock.NewFake(time.Unix(0, 0)),
				FS:            fs,
			}
			st, err := OpenWALStore("store", walOpts)
			if err != nil {
				t.Fatal(err)
			}
			srv, err := New(band, k, Options{Seed: seed, TTL: time.Minute, Store: st})
			if err != nil {
				t.Fatal(err)
			}

			hidden := make([]ist.Point, sessions)
			ids := make([]string, sessions)
			refused := make([]bool, sessions)
			finals := make([]StateResponse, sessions)
			dones := make([]bool, sessions)
			var wg sync.WaitGroup
			for i := 0; i < sessions; i++ {
				hidden[i] = ist.RandomUtility(rng, 4)
				ids[i] = fmt.Sprintf("s%d", i+1) // creates run one at a time
				rec, s0 := do(t, srv, http.MethodPost, "/sessions", map[string]string{"algorithm": "rh"})
				if rec.Code == http.StatusServiceUnavailable && fs.Crashed() {
					// The dead disk refused the create record, so the
					// session must never have been served.
					refused[i] = true
					if rec.Header().Get("Retry-After") == "" {
						t.Errorf("create %s: 503 without Retry-After", ids[i])
					}
					if rec, _ := do(t, srv, http.MethodGet, "/sessions/"+ids[i], nil); rec.Code != http.StatusNotFound {
						t.Errorf("refused create %s: GET %d, want 404", ids[i], rec.Code)
					}
					continue
				}
				if rec.Code != http.StatusCreated || s0.ID != ids[i] {
					t.Fatalf("create session %d: %d id=%q %s", i, rec.Code, s0.ID, rec.Body.String())
				}
				wg.Add(1)
				go func(i int, s0 StateResponse) {
					defer wg.Done()
					finals[i], dones[i] = drive(nil, srv, s0, hidden[i])
				}(i, s0)
			}
			wg.Wait()
			// Sessions that finished before the disk died must already be
			// correct; the others stopped at their first refused answer.
			for i := range finals {
				if dones[i] && !ist.IsTopK(band, hidden[i], k, ist.Point(finals[i].Result)) {
					t.Errorf("pre-crash session %s returned a non-top-%d tuple", ids[i], k)
				}
			}
			srv.Close()
			if !fs.Crashed() {
				t.Logf("workload finished before op %d; restart exercises a clean log", fs.Ops())
			}

			// Power comes back: reopen the store on what the disk kept and
			// rehydrate by transcript replay.
			fs.CrashAndRestart()
			st2, err := OpenWALStore("store", walOpts)
			if err != nil {
				t.Fatalf("reopen store after crash: %v", err)
			}
			srv2, err := New(band, k, Options{Seed: seed, TTL: time.Minute, Store: st2})
			if err != nil {
				t.Fatalf("restart server after crash: %v", err)
			}
			defer srv2.Close()

			recovered, refusedCreates := 0, 0
			for i, id := range ids {
				rec, got := do(t, srv2, http.MethodGet, "/sessions/"+id, nil)
				if refused[i] {
					refusedCreates++
					if rec.Code != http.StatusNotFound {
						t.Errorf("refused create %s: GET after restart %d, want 404", id, rec.Code)
					}
					continue
				}
				if rec.Code == http.StatusNotFound {
					// An acknowledged create is on disk (fsync=always), so
					// only a durably finished session has nothing to resume.
					if !dones[i] {
						t.Errorf("session %s: acknowledged but unfinished, yet not rehydrated", id)
					}
					continue
				}
				if rec.Code != http.StatusOK {
					t.Errorf("session %s: GET after restart: %d %s", id, rec.Code, rec.Body.String())
					continue
				}
				recovered++
				final, ok := drive(t, srv2, got, hidden[i])
				if !ok {
					t.Errorf("session %s did not finish after recovery: %+v", id, final)
					continue
				}
				if !ist.IsTopK(band, hidden[i], k, ist.Point(final.Result)) {
					t.Errorf("session %s: recovered answer %v is not in the user's top-%d", id, final.Result, k)
				}
			}
			t.Logf("crash at op %d: %d create(s) refused, %d/%d sessions rehydrated and certified", crashAt, refusedCreates, recovered, sessions)
		})
	}
}
