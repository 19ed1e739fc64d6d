// Repository-level benchmarks: one per protocol of the paper's Figures 7 and
// 8, the Figure-1 fail-over, the lock manager, and end-to-end throughput over
// the public API. The latency figures here use the calibrated cost model at
// scale 0.02 (2% of the paper's real-time component costs), so ns/op values
// are comparable across protocols but not to the paper's absolute
// milliseconds — `go run ./cmd/etxbench -exp f8 -scale 1` reproduces those.
// The per-layer microbenchmarks (codec, consensus, wo-register, engine) are
// benchmark/'s isolated probes.
package etx_test

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"etx"
	"etx/internal/bench"
	"etx/internal/id"
	"etx/internal/lockmgr"
)

const benchScale = 0.02

// --- Figure 8: one benchmark per protocol column ----------------------------

func benchmarkProtocol(b *testing.B, protocol string) {
	b.Helper()
	r, err := bench.NewRunner(protocol, benchScale)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Stop()
	ctx := context.Background()
	// Warm-up request outside the timer.
	if err := r.Issue(ctx); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Issue(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure8_Baseline(b *testing.B) { benchmarkProtocol(b, bench.ProtocolBaseline) }
func BenchmarkFigure8_AR(b *testing.B)       { benchmarkProtocol(b, bench.ProtocolAR) }
func BenchmarkFigure8_TwoPC(b *testing.B)    { benchmarkProtocol(b, bench.Protocol2PC) }

// BenchmarkFigure7_PrimaryBackup covers the fourth protocol of Figure 7
// (the paper did not measure its latency separately, noting its components
// match the replicated scheme's; the benchmark verifies that).
func BenchmarkFigure7_PrimaryBackup(b *testing.B) { benchmarkProtocol(b, bench.ProtocolPB) }

// --- Figure 1: fail-over executions ------------------------------------------

// benchmarkFailover builds a fresh deployment per iteration, crashes the
// primary mid-request, and measures the client-observed latency of the
// fail-over (scenario (c)/(d) of Figure 1, depending on timing).
func BenchmarkFigure1_Failover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		var reached atomic.Bool
		c, err := etx.New(etx.Config{
			Seed:          map[string]int64{"acct/a": 1 << 30},
			Tuning:        etx.Tuning{SuspectTimeout: 20 * time.Millisecond},
			ClientBackoff: 30 * time.Millisecond,
			Logic: func(ctx context.Context, tx *etx.Tx, req []byte) ([]byte, error) {
				reached.Store(true)
				if err := tx.SimulateWork(ctx, 0, 30*time.Millisecond); err != nil {
					return nil, err
				}
				bal, err := tx.Add(ctx, 0, "acct/a", -1)
				if err != nil {
					return nil, err
				}
				return []byte(fmt.Sprintf("%d", bal)), nil
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		b.StartTimer()
		done := make(chan error, 1)
		go func() {
			_, err := c.Issue(ctx, 1, nil)
			done <- err
		}()
		for !reached.Load() {
			time.Sleep(time.Millisecond)
		}
		c.CrashAppServer(1)
		if err := <-done; err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		cancel()
		c.Close()
		b.StartTimer()
	}
}

// --- lock manager -------------------------------------------------------------

func BenchmarkLockManager_AcquireRelease(b *testing.B) {
	m := lockmgr.New()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := id.ResultID{Client: id.Client(1), Seq: uint64(i), Try: 1}
		if err := m.Acquire(ctx, tx, "hot", lockmgr.Exclusive); err != nil {
			b.Fatal(err)
		}
		m.ReleaseAll(tx)
	}
}

// --- end-to-end throughput over the public API --------------------------------

// benchmarkPipelined pushes b.N requests through `clients` client handles
// with `inflight` worker goroutines per handle, so the 1×K and K×1 shapes
// are directly comparable: same deployment, same total work, different
// multiplexing. The speedup of 1×K over 1×1 measures what concurrent
// pipelining on a single handle buys.
func benchmarkPipelined(b *testing.B, clients, inflight int) {
	c, err := etx.New(etx.Config{
		Clients: clients,
		Tuning:  etx.Tuning{Workers: clients * inflight},
		Seed:    map[string]int64{"acct/a": 1 << 40},
		Logic: func(ctx context.Context, tx *etx.Tx, req []byte) ([]byte, error) {
			_, err := tx.Add(ctx, 0, "acct/a", -1)
			return []byte("ok"), err
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	for i := 1; i <= clients; i++ {
		if _, err := c.Client(i).Issue(ctx, nil); err != nil {
			b.Fatal(err)
		}
	}
	var next atomic.Int64
	b.ResetTimer()
	var wg sync.WaitGroup
	for i := 1; i <= clients; i++ {
		cl := c.Client(i)
		for w := 0; w < inflight; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for next.Add(1) <= int64(b.N) {
					if _, err := cl.Issue(ctx, nil); err != nil {
						b.Error(err)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	b.StopTimer()
	if err := c.CheckInvariants(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkPipelined_1Client1InFlight(b *testing.B)   { benchmarkPipelined(b, 1, 1) }
func BenchmarkPipelined_1Client16InFlight(b *testing.B)  { benchmarkPipelined(b, 1, 16) }
func BenchmarkPipelined_16Clients1InFlight(b *testing.B) { benchmarkPipelined(b, 16, 1) }

func BenchmarkThroughput_PublicAPI(b *testing.B) {
	c, err := etx.New(etx.Config{
		Seed: map[string]int64{"acct/a": 1 << 40},
		Logic: func(ctx context.Context, tx *etx.Tx, req []byte) ([]byte, error) {
			_, err := tx.Add(ctx, 0, "acct/a", -1)
			return []byte("ok"), err
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if _, err := c.Issue(ctx, 1, nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Issue(ctx, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := c.CheckInvariants(); err != nil {
		b.Fatal(err)
	}
}
