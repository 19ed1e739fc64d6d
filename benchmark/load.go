package main

import (
	"context"
	"errors"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	// requestDeadline is how long one request may take before it counts as
	// failed.
	requestDeadline = 10 * time.Second
	// warmupDeadline bounds the wait for the warm-up commits; a deployment
	// that commits nothing fails the run instead of hanging it.
	warmupDeadline = 60 * time.Second
	// maxOpenInFlight bounds the open loop's goroutines; a request due while
	// that many are outstanding is refused and counts as failed.
	maxOpenInFlight = 4096
	// lateAfter is the delay from due time to send beyond which the open
	// loop's generator, not the program, is what the latency shows.
	lateAfter = time.Millisecond
)

// sample is one issued request and what came back. Times are offsets from
// the run's epoch.
type sample struct {
	req             request
	due, sent, done time.Duration
	failed          bool
	// replyOK is false when the reply did not parse to the balances the
	// logic returns for this kind of request.
	replyOK bool
	bal     [2]int64
}

// procReading is the benchmark process's own resource use so far; the
// process hosts every tier.
type procReading struct {
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
}

func readProc() procReading {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procReading{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcCycles:   ms.NumGC,
	}
}

// loadResult is everything one run of a workload observed.
type loadResult struct {
	samples []sample
	// The measured interval, as offsets from the run's epoch, and the
	// counters and process readings at its two ends.
	t0, t1 time.Duration
	layers counters
	proc   [2]procReading
}

type loader struct {
	rig   *rig
	w     workload
	start time.Time

	genMu sync.Mutex
	gen   *generator // guarded by genMu

	mu      sync.Mutex
	samples []sample      // guarded by mu
	commits int           // guarded by mu
	warm    chan struct{} // closed at the w.warmup-th commit
	stop    atomic.Bool
}

func parseReply(kind byte, reply []byte) (bal [2]int64, ok bool) {
	first, second, two := strings.Cut(string(reply), ",")
	if two != (kind == kindTransfer) {
		return bal, false
	}
	var err error
	if bal[0], err = strconv.ParseInt(first, 10, 64); err != nil {
		return bal, false
	}
	if two {
		if bal[1], err = strconv.ParseInt(second, 10, 64); err != nil {
			return bal, false
		}
	}
	return bal, true
}

// issue sends q, waits for its result and records the sample. sent is when
// the generator handed the request over; refused marks a request the open
// loop did not send at all.
func (l *loader) issue(q request, due, sent time.Duration, refused bool) {
	s := sample{req: q, due: due, sent: sent, failed: refused}
	if !refused {
		ctx, cancel := context.WithTimeout(context.Background(), requestDeadline)
		reply, err := l.rig.issue(ctx, q.encode())
		cancel()
		if err != nil {
			s.failed = true
		} else {
			s.bal, s.replyOK = parseReply(q.kind, reply)
		}
	}
	s.done = time.Since(l.start)
	l.mu.Lock()
	l.samples = append(l.samples, s)
	if !s.failed {
		l.commits++
		if l.commits == l.w.warmup {
			close(l.warm)
		}
	}
	l.mu.Unlock()
}

// closedLoop is one slot: it sends its next request when the previous one
// has returned.
func (l *loader) closedLoop() {
	for !l.stop.Load() {
		l.genMu.Lock()
		q := l.gen.next()
		l.genMu.Unlock()
		now := time.Since(l.start)
		l.issue(q, now, now, false)
	}
}

// openLoop sends each request at its due time, whatever the program does
// with the earlier ones, and returns when every request has come back.
func (l *loader) openLoop() {
	// The runtime's timers wake a sleeper up to a millisecond late, twice
	// the mean gap between arrivals; the kernel's are exact to some tens of
	// microseconds, for the price of one thread.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var wg sync.WaitGroup
	defer wg.Wait()
	slots := make(chan struct{}, maxOpenInFlight) // counting semaphore
	due := time.Since(l.start)
	for !l.stop.Load() {
		l.genMu.Lock()
		q := l.gen.next()
		l.genMu.Unlock()
		due += q.gap
		if wait := due - time.Since(l.start); wait > 0 {
			ts := syscall.NsecToTimespec(int64(wait))
			_ = syscall.Nanosleep(&ts, nil) // woken early by a signal, the request is sent early by that much
		}
		at, sent := due, time.Since(l.start) // the goroutine must not see the loop advance due
		select {
		case slots <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				l.issue(q, at, sent, false)
				<-slots
			}()
		default:
			l.issue(q, at, sent, true)
		}
	}
}

// runLoad drives w against r: the warm-up commits, then `measure` of
// measured traffic, then it waits for the requests still out. The request
// stream depends on the seed alone. Every time in the result is an offset
// from epoch.
func runLoad(r *rig, w workload, seed int64, measure time.Duration, epoch time.Time) (*loadResult, error) {
	l := &loader{
		rig: r, w: w, start: epoch,
		gen:     newGenerator(w, seed),
		samples: make([]sample, 0, 1<<16),
		warm:    make(chan struct{}),
	}
	var wg sync.WaitGroup
	if w.depth == 0 {
		wg.Add(1)
		go func() { defer wg.Done(); l.openLoop() }()
	}
	for i := 0; i < w.depth; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); l.closedLoop() }()
	}
	finish := func() {
		l.stop.Store(true)
		wg.Wait()
	}

	select {
	case <-l.warm:
	case <-time.After(warmupDeadline):
		finish()
		return nil, errors.New("no commits: the warm-up did not complete")
	}
	res := &loadResult{t0: time.Since(l.start)}
	layers0 := r.snapshot()
	res.proc[0] = readProc()
	time.Sleep(measure)
	res.t1 = time.Since(l.start)
	res.layers = r.snapshot().sub(layers0)
	res.proc[1] = readProc()
	finish()
	res.samples = l.samples
	return res, nil
}
