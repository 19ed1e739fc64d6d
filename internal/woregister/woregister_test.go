package woregister

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"etx/internal/consensus"
	"etx/internal/fd"
	"etx/internal/id"
	"etx/internal/msg"
	"etx/internal/transport"
)

// soloRegisters builds Registers over a single-node consensus (majority = 1),
// which decides instantly with no network: ideal for unit semantics.
func soloRegisters(t *testing.T) *Registers {
	t.Helper()
	node, err := consensus.New(consensus.Config{
		Self:     id.AppServer(1),
		Peers:    []id.NodeID{id.AppServer(1)},
		Send:     func(id.NodeID, msg.Payload) error { return nil },
		Detector: fd.NewScripted(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Stop)
	r := New(node)
	t.Cleanup(r.Stop)
	return r
}

func testRID(try uint64) id.ResultID {
	return id.ResultID{Client: id.Client(1), Seq: 1, Try: try}
}

func TestReadEmptyIsBottom(t *testing.T) {
	r := soloRegisters(t)
	if _, ok := r.ReadA(testRID(1)); ok {
		t.Error("fresh regA must read ⊥")
	}
	if _, ok := r.ReadD(testRID(1)); ok {
		t.Error("fresh regD must read ⊥")
	}
}

func TestWriteAThenRead(t *testing.T) {
	r := soloRegisters(t)
	ctx := context.Background()
	winner, err := r.WriteA(ctx, testRID(1), id.AppServer(1))
	if err != nil {
		t.Fatal(err)
	}
	if winner != id.AppServer(1) {
		t.Fatalf("winner = %v", winner)
	}
	got, ok := r.ReadA(testRID(1))
	if !ok || got != id.AppServer(1) {
		t.Fatalf("ReadA = (%v,%v)", got, ok)
	}
}

func TestWriteOnceFirstWriterWins(t *testing.T) {
	r := soloRegisters(t)
	ctx := context.Background()
	if _, err := r.WriteA(ctx, testRID(1), id.AppServer(1)); err != nil {
		t.Fatal(err)
	}
	// A second write must return the first value, not overwrite.
	winner, err := r.WriteA(ctx, testRID(1), id.AppServer(2))
	if err != nil {
		t.Fatal(err)
	}
	if winner != id.AppServer(1) {
		t.Fatalf("second write returned %v, want first writer appserver-1", winner)
	}
}

func TestWriteDCleanerVsExecutorRace(t *testing.T) {
	r := soloRegisters(t)
	ctx := context.Background()
	commit := msg.Decision{Result: []byte("res"), Outcome: msg.OutcomeCommit}
	got, err := r.WriteD(ctx, testRID(1), commit)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Committed() {
		t.Fatalf("executor write lost on empty register: %v", got)
	}
	// Cleaner writes (nil, abort) afterwards: must get back the commit.
	clean, err := r.WriteD(ctx, testRID(1), msg.Decision{Outcome: msg.OutcomeAbort})
	if err != nil {
		t.Fatal(err)
	}
	if !clean.Committed() || string(clean.Result) != "res" {
		t.Fatalf("cleaner must observe the committed decision, got %v", clean)
	}
}

func TestRegistersAreIndependentPerTry(t *testing.T) {
	r := soloRegisters(t)
	ctx := context.Background()
	r.WriteD(ctx, testRID(1), msg.Decision{Outcome: msg.OutcomeAbort})
	r.WriteD(ctx, testRID(2), msg.Decision{Result: []byte("ok"), Outcome: msg.OutcomeCommit})
	d1, _ := r.ReadD(testRID(1))
	d2, _ := r.ReadD(testRID(2))
	if d1.Committed() || !d2.Committed() {
		t.Fatalf("tries interfered: %v / %v", d1, d2)
	}
	// regA and regD for the same try are independent registers.
	if _, ok := r.ReadA(testRID(1)); ok {
		t.Error("regA must still be ⊥; only regD was written")
	}
}

func TestKnownTriesListsRegAOnly(t *testing.T) {
	r := soloRegisters(t)
	ctx := context.Background()
	r.WriteA(ctx, testRID(3), id.AppServer(1))
	r.WriteD(ctx, testRID(9), msg.Decision{Outcome: msg.OutcomeAbort})
	tries := r.KnownTries()
	if len(tries) != 1 || tries[0] != testRID(3) {
		t.Fatalf("KnownTries = %v, want exactly [try 3]", tries)
	}
}

// TestNewProposesOneWritePerSlot: New is the paper's discipline, one
// consensus instance per register write, even when writes are concurrent.
func TestNewProposesOneWritePerSlot(t *testing.T) {
	r := soloRegisters(t)
	const writes = 8
	var wg sync.WaitGroup
	for i := 1; i <= writes; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := r.WriteA(context.Background(), testRID(uint64(i)), id.AppServer(1)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if st := r.node.Stats(); st.Proposes != writes || st.BatchOps != writes {
		t.Fatalf("%d writes took %d proposals deciding %d ops, want one op per proposal", writes, st.Proposes, st.BatchOps)
	}
}

func TestNodeEncodingRoundTrip(t *testing.T) {
	f := func(role uint8, index int32) bool {
		n := id.NodeID{Role: id.Role(role), Index: int(index)}
		back, err := DecodeNode(EncodeNode(n))
		return err == nil && back == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecisionEncodingRoundTrip(t *testing.T) {
	f := func(commit bool, res []byte, partIdx []uint8, known bool) bool {
		o := msg.OutcomeAbort
		if commit {
			o = msg.OutcomeCommit
		}
		// The participant dlist must survive the register: nil (unknown)
		// and populated lists are both legal values.
		var parts []id.NodeID
		if known {
			parts = make([]id.NodeID, 0, len(partIdx))
			for _, i := range partIdx {
				parts = append(parts, id.DBServer(int(i)+1))
			}
		}
		d := msg.Decision{Result: res, Outcome: o, Participants: parts}
		back, err := DecodeDecision(EncodeDecision(d))
		if err != nil {
			return false
		}
		if back.Outcome != o || !bytes.Equal(back.Result, res) {
			return false
		}
		if (back.Participants == nil) != (parts == nil) || len(back.Participants) != len(parts) {
			return false
		}
		for i := range parts {
			if back.Participants[i] != parts[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeNode(nil); err == nil {
		t.Error("DecodeNode(nil) must fail")
	}
	if _, err := DecodeNode([]byte{1}); err == nil {
		t.Error("DecodeNode(short) must fail")
	}
	if _, err := DecodeDecision(nil); err == nil {
		t.Error("DecodeDecision(nil) must fail")
	}
	if _, err := DecodeDecision([]byte{99}); err == nil {
		t.Error("DecodeDecision(bad outcome) must fail")
	}
}

// TestReplicatedWriteOnce runs the real thing: three replicas over a network,
// all writing different values to the same register concurrently; exactly one
// value must win everywhere.
func TestReplicatedWriteOnce(t *testing.T) {
	net := transport.NewMemNetwork(transport.Options{
		DefaultLatency: 100 * time.Microsecond,
		Jitter:         200 * time.Microsecond,
	})
	defer net.Close()
	peers := []id.NodeID{id.AppServer(1), id.AppServer(2), id.AppServer(3)}
	regs := make(map[id.NodeID]*Registers, len(peers))
	var wgRecv sync.WaitGroup
	for _, p := range peers {
		ep, err := net.Attach(p)
		if err != nil {
			t.Fatal(err)
		}
		node, err := consensus.New(consensus.Config{
			Self:     p,
			Peers:    peers,
			Detector: fd.NewScripted(),
			Poll:     200 * time.Microsecond,
			Send: func(to id.NodeID, pl msg.Payload) error {
				return ep.Send(msg.Envelope{To: to, Payload: pl})
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(node.Stop)
		regs[p] = New(node)
		wgRecv.Add(1)
		go func() {
			defer wgRecv.Done()
			for env := range ep.Recv() {
				node.Handle(env.From, env.Payload)
			}
		}()
	}
	t.Cleanup(wgRecv.Wait)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rid := testRID(1)
	winners := make([]id.NodeID, len(peers))
	var wg sync.WaitGroup
	for i, p := range peers {
		i, p := i, p
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, err := regs[p].WriteA(ctx, rid, p)
			if err != nil {
				t.Errorf("%v: %v", p, err)
				return
			}
			winners[i] = w
		}()
	}
	wg.Wait()
	for i := 1; i < len(winners); i++ {
		if winners[i] != winners[0] {
			t.Fatalf("write-once violated across replicas: %v", winners)
		}
	}
	found := false
	for _, p := range peers {
		if winners[0] == p {
			found = true
		}
	}
	if !found {
		t.Fatalf("winner %v is not one of the writers", winners[0])
	}
}
