package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"etx/internal/id"
	"etx/internal/kv"
	"etx/internal/msg"
	"etx/internal/stablestore"
	"etx/internal/xadb"
)

// plannerBatch builds a representative drained batch: several tries from
// several clients, each issuing a few operations over a small hot key set,
// plus keyless cost-model work.
func plannerBatch() []execJob {
	var jobs []execJob
	keys := []string{"acct/a", "acct/b", "acct/c"}
	for cl := 1; cl <= 3; cl++ {
		for seq := uint64(1); seq <= 4; seq++ {
			rid := id.ResultID{Client: id.Client(cl), Seq: seq, Try: 1}
			for call := uint64(1); call <= 3; call++ {
				op := msg.Op{Code: msg.OpAdd, Key: keys[int(seq+call)%len(keys)], Delta: 1}
				if call == 3 {
					op = msg.Op{Code: msg.OpSleep} // keyless: no conflict footprint
				}
				jobs = append(jobs, execJob{from: id.AppServer(cl), m: msg.Exec{RID: rid, CallID: call, Op: op}})
			}
		}
	}
	return jobs
}

// TestPlanBatchDeterministic is the planner property test: planning is a pure
// function of the batch's *contents* — re-planning the same batch, or
// planning any permutation of it (two replicas drain the same operations in
// different arrival orders), yields the identical plan: same keys in the same
// order, same per-key queue orders, same keyless residue set.
func TestPlanBatchDeterministic(t *testing.T) {
	base := plannerBatch()
	wantKeyed, wantKeyless := planBatch(append([]execJob(nil), base...))

	// Re-planning the identical batch is exact, keyless order included.
	againKeyed, againKeyless := planBatch(append([]execJob(nil), base...))
	if !reflect.DeepEqual(wantKeyed, againKeyed) || !reflect.DeepEqual(wantKeyless, againKeyless) {
		t.Fatal("re-planning the same batch produced a different plan")
	}

	keylessSet := func(js []execJob) map[string]bool {
		m := make(map[string]bool, len(js))
		for _, j := range js {
			m[fmt.Sprintf("%+v", j.m)] = true
		}
		return m
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		perm := append([]execJob(nil), base...)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		keyed, keyless := planBatch(perm)
		if !reflect.DeepEqual(wantKeyed, keyed) {
			t.Fatalf("trial %d: permuted batch planned differently:\nwant %+v\ngot  %+v", trial, wantKeyed, keyed)
		}
		// Keyless operations have no ordering contract (the worker pool is
		// unordered), only a membership one.
		if !reflect.DeepEqual(keylessSet(wantKeyless), keylessSet(keyless)) {
			t.Fatalf("trial %d: keyless residue diverged", trial)
		}
	}

	// The plan's own invariants: keys strictly ascending, per-key jobs in
	// strictly ascending (ResultID, CallID) priority, nothing lost.
	total := 0
	for i, p := range wantKeyed {
		if i > 0 && wantKeyed[i-1].key >= p.key {
			t.Errorf("plan keys out of order: %q before %q", wantKeyed[i-1].key, p.key)
		}
		total += len(p.jobs)
		for j := 1; j < len(p.jobs); j++ {
			if !execPriority(p.jobs[j-1], p.jobs[j]) {
				t.Errorf("key %q: jobs %d,%d out of priority order", p.key, j-1, j)
			}
			if p.jobs[j].m.Op.Key != p.key {
				t.Errorf("key %q holds a job for key %q", p.key, p.jobs[j].m.Op.Key)
			}
		}
	}
	if total+len(wantKeyless) != len(base) {
		t.Errorf("plan covers %d+%d jobs, batch had %d", total, len(wantKeyless), len(base))
	}
}

// TestPlanExecutionReplicasByteIdentical is the replica-determinism half of
// the property: two independent engines that execute the same
// plan — per-key order respected, but the keys themselves visited in
// *opposite* orders, as two replicas' schedulers legitimately may — and then
// commit the tries in ResultID order, end in byte-identical stores.
func TestPlanExecutionReplicasByteIdentical(t *testing.T) {
	batch := plannerBatch()
	keyed, _ := planBatch(append([]execJob(nil), batch...))

	seed := []kv.Write{
		{Key: "acct/a", Val: kv.EncodeInt(100)},
		{Key: "acct/b", Val: kv.EncodeInt(100)},
		{Key: "acct/c", Val: kv.EncodeInt(100)},
	}
	run := func(reverseKeys bool) []kv.Write {
		e, err := xadb.Open(stablestore.New(0), xadb.Config{Self: id.DBServer(1)})
		if err != nil {
			t.Fatal(err)
		}
		e.Seed(seed)
		ctx := context.Background()
		plan := append([]keyPlan(nil), keyed...)
		if reverseKeys {
			for i, j := 0, len(plan)-1; i < j; i, j = i+1, j-1 {
				plan[i], plan[j] = plan[j], plan[i]
			}
		}
		rids := make(map[id.ResultID]bool)
		for _, p := range plan {
			for _, j := range p.jobs {
				if rep := e.Exec(ctx, j.m.RID, j.m.Op); !rep.OK {
					t.Fatalf("exec %v on %q failed: %s", j.m.RID, p.key, rep.Err)
				}
				rids[j.m.RID] = true
			}
		}
		// Commit in ResultID order — the total order the commit path's
		// consensus fixes — so every vote gate's predecessors are decided
		// before the vote is requested.
		var order []id.ResultID
		for rid := range rids {
			order = append(order, rid)
		}
		for i := range order {
			for j := i + 1; j < len(order); j++ {
				if order[j].Less(order[i]) {
					order[i], order[j] = order[j], order[i]
				}
			}
		}
		for _, rid := range order {
			if v := e.Vote(rid); v != msg.VoteYes {
				t.Fatalf("vote %v = %v, want yes", rid, v)
			}
			if o := e.Decide(rid, msg.OutcomeCommit); o != msg.OutcomeCommit {
				t.Fatalf("decide %v = %v, want commit", rid, o)
			}
		}
		return e.Store().Snapshot()
	}

	a, b := run(false), run(true)
	if len(a) != len(b) {
		t.Fatalf("replica snapshots differ in size: %d vs %d keys", len(a), len(b))
	}
	for i := range a {
		if a[i].Key != b[i].Key || !bytes.Equal(a[i].Val, b[i].Val) {
			t.Errorf("replica state diverged at %q: %x vs %q=%x", a[i].Key, a[i].Val, b[i].Key, b[i].Val)
		}
	}
	// Sanity: the run did something — the snapshot differs from the seed.
	if fmt.Sprintf("%v", a) == fmt.Sprintf("%v", seed) {
		t.Error("execution left the seed untouched; the batch was not applied")
	}
}
