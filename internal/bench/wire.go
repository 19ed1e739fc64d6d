package bench

import (
	"fmt"
	"strings"
	"time"

	"etx/internal/id"
	"etx/internal/msg"
	"etx/internal/transport/tcptransport"
)

// --- EXP-WI: zero-copy vectored transport --------------------------------------
//
// A raw-transport microbenchmark over real TCP loopback: a sender pushes
// frames at a fixed pipelining depth through the per-peer writer, once with
// vectored flushes (one writev per queue drain) and once with the flush cap
// pinned to one frame — the historical one-write-per-frame transport — so
// the frames-per-second and syscall columns of a depth are directly
// comparable. The zero-copy property is counter-verified every run: on the
// writev build the coalesced counter must stay at 0.

// WireRow is one (mode, depth) cell.
type WireRow struct {
	Mode     string        `json:"mode"` // "perframe" | "writev"
	InFlight int           `json:"in_flight"`
	Frames   int           `json:"frames"`
	Elapsed  time.Duration `json:"elapsed_ns"`
	// FramesPerSec is delivered frames per second.
	FramesPerSec float64 `json:"frames_per_sec"`
	// WritevCalls is the kernel flushes the sender paid; FramesPerWritev is
	// the amortization factor (1.0 = every frame paid its own syscall).
	WritevCalls     uint64  `json:"writev_calls"`
	FramesPerWritev float64 `json:"frames_per_writev"`
	// Coalesced counts frames copied through a coalescing buffer — 0 on the
	// scatter-gather path, counter-verified.
	Coalesced uint64 `json:"coalesced_frames"`
	// QueueDrops counts frames dropped on a full writer queue (0 in this
	// paced run).
	QueueDrops uint64 `json:"queue_drops"`
}

// WireReport is the experiment report.
type WireReport struct {
	Wire []WireRow `json:"wire"`
}

// RunWire measures the raw transport at depths 1, 32 and 64 (or 1 and depth,
// when depth is nonzero), best of two runs per cell; quick shrinks it to one
// run of fewer frames at depths 1 and 32.
func RunWire(quick bool, depth int) (*WireReport, error) {
	runs, frames, depths := 2, 20000, []int{1, 32, 64}
	if quick {
		runs, frames, depths = 1, 4000, []int{1, 32}
	}
	if depth > 1 {
		depths = []int{1, depth}
	} else if depth == 1 {
		depths = []int{1}
	}
	out := &WireReport{}
	for _, inflight := range depths {
		for _, mode := range []string{"perframe", "writev"} {
			var best WireRow
			for r := 0; r < runs; r++ {
				row, err := oneWireRun(mode, inflight, frames)
				if err != nil {
					return nil, errf("wire inflight=%d mode=%s: %w", inflight, mode, err)
				}
				if r == 0 || row.FramesPerSec > best.FramesPerSec {
					best = row
				}
			}
			out.Wire = append(out.Wire, best)
		}
	}
	return out, nil
}

// oneWireRun pushes `frames` envelopes through a real TCP loopback link at
// the given pipelining depth. The sender self-paces on receiver delivery
// (a token per outstanding frame), so the writer queue never overflows and
// every frame's cost is measured, not dropped.
func oneWireRun(mode string, inflight, frames int) (WireRow, error) {
	maxWritev := 64
	if mode == "perframe" {
		maxWritev = 1
	}
	mk := func(n int) (*tcptransport.Endpoint, error) {
		return tcptransport.Listen(tcptransport.Config{
			Self:       id.Client(n),
			Listen:     "127.0.0.1:0",
			QueueDepth: inflight + 8,
			MaxWritev:  maxWritev,
		})
	}
	snd, err := mk(1)
	if err != nil {
		return WireRow{}, err
	}
	defer snd.Close()
	rcv, err := mk(2)
	if err != nil {
		return WireRow{}, err
	}
	defer rcv.Close()
	book := map[id.NodeID]string{snd.ID(): snd.Addr(), rcv.ID(): rcv.Addr()}
	snd.SetPeers(book)
	rcv.SetPeers(book)

	// A mid-size frame: large enough that per-frame syscall overhead is not
	// the only cost, small enough that the link never saturates loopback
	// bandwidth before it saturates on syscalls.
	body := make([]byte, 256)
	for i := range body {
		body[i] = byte(i)
	}

	tokens := make(chan struct{}, inflight)
	for i := 0; i < inflight; i++ {
		tokens <- struct{}{}
	}
	recvErr := make(chan error, 1)
	go func() {
		deadline := time.After(60 * time.Second)
		for i := 0; i < frames; i++ {
			select {
			case <-rcv.Recv():
				tokens <- struct{}{}
			case <-deadline:
				recvErr <- fmt.Errorf("receiver stalled at frame %d/%d", i, frames)
				return
			}
		}
		recvErr <- nil
	}()

	rid := id.ResultID{Client: snd.ID(), Seq: 1, Try: 1}
	t0 := time.Now()
	for i := 0; i < frames; i++ {
		<-tokens
		if err := snd.Send(msg.Envelope{To: rcv.ID(), Payload: msg.Request{RID: rid, Body: body}}); err != nil {
			return WireRow{}, err
		}
	}
	if err := <-recvErr; err != nil {
		return WireRow{}, err
	}
	elapsed := time.Since(t0)

	st := snd.Stats()
	if st.QueueDrops != 0 {
		return WireRow{}, fmt.Errorf("paced run dropped %d frames on the writer queue", st.QueueDrops)
	}
	if tcptransport.Vectored() && st.Coalesced != 0 {
		// The zero-copy property the experiment exists to demonstrate,
		// verified on every run: the writev path never coalesces.
		return WireRow{}, fmt.Errorf("writev build coalesced %d frames", st.Coalesced)
	}
	if mode == "writev" && inflight >= 32 && st.FramesPerWritev() <= 1.0 {
		return WireRow{}, fmt.Errorf("depth-%d writev run amortized nothing (%.2f frames/flush over %d flushes)",
			inflight, st.FramesPerWritev(), st.WritevCalls)
	}
	row := WireRow{
		Mode:            mode,
		InFlight:        inflight,
		Frames:          frames,
		Elapsed:         elapsed,
		WritevCalls:     st.WritevCalls,
		FramesPerWritev: st.FramesPerWritev(),
		Coalesced:       st.Coalesced,
		QueueDrops:      st.QueueDrops,
	}
	if elapsed > 0 {
		row.FramesPerSec = float64(frames) / elapsed.Seconds()
	}
	return row, nil
}

// WireCell returns the wire-section cell for (inflight, mode), or nil.
func (b *WireReport) WireCell(inflight int, mode string) *WireRow {
	for i := range b.Wire {
		r := &b.Wire[i]
		if r.InFlight == inflight && r.Mode == mode {
			return r
		}
	}
	return nil
}

// String renders the report.
func (b *WireReport) String() string {
	var s strings.Builder
	fmt.Fprintf(&s, "Vectored transport (%d frames per cell, 256 B bodies, real TCP loopback; writev build: %v)\n",
		b.Wire[0].Frames, tcptransport.Vectored())
	fmt.Fprintf(&s, "%-10s %-9s %12s %12s %12s %14s %10s\n",
		"in-flight", "mode", "elapsed (ms)", "frames/s", "flushes", "frames/flush", "coalesced")
	for _, r := range b.Wire {
		speed := ""
		if r.Mode == "writev" {
			if pf := b.WireCell(r.InFlight, "perframe"); pf != nil && pf.FramesPerSec > 0 {
				speed = fmt.Sprintf(" (%.1fx)", r.FramesPerSec/pf.FramesPerSec)
			}
		}
		fmt.Fprintf(&s, "%-10d %-9s %12.1f %12.0f %12d %14.1f %10d%s\n",
			r.InFlight, r.Mode, float64(r.Elapsed)/1e6, r.FramesPerSec,
			r.WritevCalls, r.FramesPerWritev, r.Coalesced, speed)
	}
	s.WriteString("(perframe pins the flush cap at one frame — the historical one-write-per-frame\n" +
		" transport — so the writev rows isolate scatter-gather amortization; zero\n" +
		" coalescing copies is counter-verified every run)\n")
	return s.String()
}
