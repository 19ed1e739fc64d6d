package xadb

import (
	"context"
	"fmt"
	"testing"
	"time"

	"etx/internal/id"
	"etx/internal/msg"
	"etx/internal/stablestore"
)

// drain serves decides and votes through the data server's drain entry point,
// resolving gated votes through Vote as the server's serveBatch does.
func drain(e *Engine, decides []DecideReq, votes []id.ResultID) ([]msg.Outcome, []msg.Vote) {
	outs, vs, gated := e.DecideAndVoteBatchSpec(decides, votes)
	for _, i := range gated {
		vs[i] = e.Vote(votes[i])
	}
	return outs, vs
}

// TestVoteBatchMatchesSingleVotes: the batched entry point returns exactly
// what per-branch Vote calls would, across yes, poisoned-no and
// already-aborted branches, while sharing one forced write.
func TestVoteBatchMatchesSingleVotes(t *testing.T) {
	st := stablestore.New(0)
	e, err := Open(st, Config{Self: id.DBServer(1), LockTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	good := rid(1, 1)
	e.Exec(ctx, good, msg.Op{Code: msg.OpAdd, Key: "a", Delta: 1})
	poisoned := rid(2, 1)
	e.Exec(ctx, poisoned, msg.Op{Code: msg.OpCheckGE, Key: "a", Delta: 1 << 40})
	aborted := rid(3, 1)
	e.Exec(ctx, aborted, msg.Op{Code: msg.OpAdd, Key: "b", Delta: 1})
	e.Decide(aborted, msg.OutcomeAbort)
	untouched := rid(4, 1)

	base := st.ForcedWrites()
	_, votes := drain(e, nil, []id.ResultID{good, poisoned, aborted, untouched})
	want := []msg.Vote{msg.VoteYes, msg.VoteNo, msg.VoteNo, msg.VoteYes}
	for i, v := range votes {
		if v != want[i] {
			t.Errorf("vote[%d] = %v, want %v", i, v, want[i])
		}
	}
	// Two yes votes (good + untouched) share a single forced write.
	if got := st.ForcedWrites() - base; got != 1 {
		t.Errorf("forced writes for the batch = %d, want 1 shared Sync", got)
	}
}

// TestDecideBatchCommitsAndRecovers: a batch of commits applies every
// write-set, shares one forced write, and the commit records survive a
// crash/recovery of the engine on the same store.
func TestDecideBatchCommitsAndRecovers(t *testing.T) {
	st := stablestore.New(0)
	e, err := Open(st, Config{Self: id.DBServer(1), LockTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	const n = 5
	rids := make([]id.ResultID, n)
	for i := range rids {
		rids[i] = rid(uint64(10+i), 1)
		e.Exec(ctx, rids[i], msg.Op{Code: msg.OpAdd, Key: fmt.Sprintf("k%d", i), Delta: int64(i + 1)})
	}
	if _, votes := drain(e, nil, rids); len(votes) != n {
		t.Fatalf("votes = %v", votes)
	}
	reqs := make([]DecideReq, n)
	for i, r := range rids {
		reqs[i] = DecideReq{RID: r, O: msg.OutcomeCommit}
	}
	base := st.ForcedWrites()
	outs, _ := drain(e, reqs, nil)
	for i, o := range outs {
		if o != msg.OutcomeCommit {
			t.Errorf("outcome[%d] = %v", i, o)
		}
	}
	if got := st.ForcedWrites() - base; got != 1 {
		t.Errorf("forced writes for %d commits = %d, want 1 shared Sync", n, got)
	}
	for i := 0; i < n; i++ {
		if v, _ := e.Store().GetInt(fmt.Sprintf("k%d", i)); v != int64(i+1) {
			t.Errorf("k%d = %d, want %d", i, v, i+1)
		}
	}

	// Recover on the same stable storage: the batched commit records replay.
	re, err := Open(st, Config{Self: id.DBServer(1)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if v, _ := re.Store().GetInt(fmt.Sprintf("k%d", i)); v != int64(i+1) {
			t.Errorf("after recovery: k%d = %d, want %d", i, v, i+1)
		}
		if s, ok := re.BranchStatus(rids[i]); !ok || s != StatusCommitted {
			t.Errorf("after recovery: status[%d] = %v (known=%v)", i, s, ok)
		}
	}
}

// TestBatchNotStalledByLockWaitingExec: a branch whose mutex is held by an
// Exec waiting out a data-lock acquisition must not stall the rest of the
// batch — in particular not the Decide(abort) in the same batch that
// releases the contended lock. The try-lock first pass preserves what the
// per-message-goroutine design guaranteed.
func TestBatchNotStalledByLockWaitingExec(t *testing.T) {
	const lockTimeout = 2 * time.Second
	st := stablestore.New(0)
	e, err := Open(st, Config{Self: id.DBServer(1), LockTimeout: lockTimeout})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	holder := rid(30, 1)
	e.Exec(ctx, holder, msg.Op{Code: msg.OpAdd, Key: "hot", Delta: 1})
	waiter := rid(31, 1)
	execDone := make(chan msg.OpResult, 1)
	go func() {
		// Blocks on the data lock held by `holder`, holding waiter's branch
		// mutex the whole time.
		execDone <- e.Exec(ctx, waiter, msg.Op{Code: msg.OpAdd, Key: "hot", Delta: 1})
	}()
	// Wait until the Exec is actually inside its lock wait.
	deadline := time.Now().Add(time.Second)
	for {
		if s, ok := e.BranchStatus(waiter); ok && s == StatusActive {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("waiter branch never appeared")
		}
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	outs, _ := drain(e, []DecideReq{
		{RID: waiter, O: msg.OutcomeAbort}, // branch mutex busy: must be deferred, not waited on
		{RID: holder, O: msg.OutcomeAbort}, // releases the contended lock
	}, nil)
	elapsed := time.Since(start)
	if outs[0] != msg.OutcomeAbort || outs[1] != msg.OutcomeAbort {
		t.Fatalf("outcomes = %v", outs)
	}
	if elapsed >= lockTimeout/2 {
		t.Errorf("batch took %v: stalled behind the lock-waiting Exec (LockTimeout %v)", elapsed, lockTimeout)
	}
	<-execDone
}

// TestDecideBatchMixedOutcomes: aborts and commits coexist in one batch and
// remain idempotent against the decide() contract.
func TestDecideBatchMixedOutcomes(t *testing.T) {
	e := newEngine(t)
	ctx := context.Background()

	commit := rid(20, 1)
	e.Exec(ctx, commit, msg.Op{Code: msg.OpAdd, Key: "c", Delta: 7})
	e.Vote(commit)
	abort := rid(21, 1)
	e.Exec(ctx, abort, msg.Op{Code: msg.OpAdd, Key: "d", Delta: 9})
	unknown := rid(22, 1)
	unprepared := rid(23, 1)
	e.Exec(ctx, unprepared, msg.Op{Code: msg.OpAdd, Key: "e", Delta: 11})

	outs, _ := drain(e, []DecideReq{
		{RID: commit, O: msg.OutcomeCommit},
		{RID: abort, O: msg.OutcomeAbort},
		{RID: unknown, O: msg.OutcomeAbort},
		{RID: unprepared, O: msg.OutcomeCommit}, // never voted yes: degrades to abort
	}, nil)
	want := []msg.Outcome{msg.OutcomeCommit, msg.OutcomeAbort, msg.OutcomeAbort, msg.OutcomeAbort}
	for i, o := range outs {
		if o != want[i] {
			t.Errorf("outcome[%d] = %v, want %v", i, o, want[i])
		}
	}
	if v, _ := e.Store().GetInt("c"); v != 7 {
		t.Errorf("c = %d, want 7", v)
	}
	if _, ok := e.Store().Get("e"); ok {
		t.Error("unprepared branch's write leaked into the store")
	}
	// Idempotence: re-deciding through the batch path returns the recorded
	// outcomes unchanged.
	again, _ := drain(e, []DecideReq{{RID: commit, O: msg.OutcomeCommit}, {RID: abort, O: msg.OutcomeAbort}}, nil)
	if again[0] != msg.OutcomeCommit || again[1] != msg.OutcomeAbort {
		t.Errorf("re-decide = %v", again)
	}
}
