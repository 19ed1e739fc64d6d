package xadb

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"etx/internal/id"
	"etx/internal/kv"
	"etx/internal/msg"
	"etx/internal/stablestore"
)

func newEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := Open(stablestore.New(0), Config{Self: id.DBServer(1), LockTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func rid(seq, try uint64) id.ResultID {
	return id.ResultID{Client: id.Client(1), Seq: seq, Try: try}
}

func TestExecGetPutAdd(t *testing.T) {
	e := newEngine(t)
	ctx := context.Background()
	r := rid(1, 1)

	if rep := e.Exec(ctx, r, msg.Op{Code: msg.OpPut, Key: "k", Val: []byte("v")}); !rep.OK {
		t.Fatalf("put: %+v", rep)
	}
	// Read-your-writes before commit.
	if rep := e.Exec(ctx, r, msg.Op{Code: msg.OpGet, Key: "k"}); !rep.OK || string(rep.Val) != "v" {
		t.Fatalf("get: %+v", rep)
	}
	if rep := e.Exec(ctx, r, msg.Op{Code: msg.OpAdd, Key: "n", Delta: 5}); !rep.OK || rep.Num != 5 {
		t.Fatalf("add: %+v", rep)
	}
	if rep := e.Exec(ctx, r, msg.Op{Code: msg.OpAdd, Key: "n", Delta: -2}); !rep.OK || rep.Num != 3 {
		t.Fatalf("second add: %+v", rep)
	}
	// Uncommitted writes are invisible in the store.
	if _, ok := e.Store().Get("k"); ok {
		t.Fatal("uncommitted write leaked into the store")
	}
}

func TestVoteCommitAppliesWrites(t *testing.T) {
	e := newEngine(t)
	ctx := context.Background()
	r := rid(1, 1)
	e.Exec(ctx, r, msg.Op{Code: msg.OpAdd, Key: "acct", Delta: 100})
	if v := e.Vote(r); v != msg.VoteYes {
		t.Fatalf("vote = %v", v)
	}
	if o := e.Decide(r, msg.OutcomeCommit); o != msg.OutcomeCommit {
		t.Fatalf("decide = %v", o)
	}
	if n, _ := e.Store().GetInt("acct"); n != 100 {
		t.Fatalf("acct = %d after commit", n)
	}
	if st, ok := e.BranchStatus(r); !ok || st != StatusCommitted {
		t.Fatalf("status = %v,%v", st, ok)
	}
}

func TestAbortDiscardsWritesAndReleasesLocks(t *testing.T) {
	e := newEngine(t)
	ctx := context.Background()
	r1, r2 := rid(1, 1), rid(2, 1)
	e.Exec(ctx, r1, msg.Op{Code: msg.OpPut, Key: "k", Val: []byte("dirty")})
	if o := e.Decide(r1, msg.OutcomeAbort); o != msg.OutcomeAbort {
		t.Fatalf("decide = %v", o)
	}
	if _, ok := e.Store().Get("k"); ok {
		t.Fatal("aborted write reached the store")
	}
	// The aborted branch left the key's chain: the next try's vote is not
	// gated behind it.
	if rep := e.Exec(ctx, r2, msg.Op{Code: msg.OpPut, Key: "k", Val: []byte("clean")}); !rep.OK {
		t.Fatalf("exec after abort: %+v", rep)
	}
	if v := e.Vote(r2); v != msg.VoteYes {
		t.Fatalf("vote after the predecessor aborted = %v", v)
	}
}

func TestDecideContractAbortInAbortOut(t *testing.T) {
	e := newEngine(t)
	ctx := context.Background()
	r := rid(1, 1)
	e.Exec(ctx, r, msg.Op{Code: msg.OpPut, Key: "k", Val: []byte("v")})
	e.Vote(r)
	// (a): input abort -> returned abort, even after a yes vote.
	if o := e.Decide(r, msg.OutcomeAbort); o != msg.OutcomeAbort {
		t.Fatalf("decide(abort) = %v", o)
	}
}

func TestDecideCommitWithoutPrepareDegradesToAbort(t *testing.T) {
	e := newEngine(t)
	ctx := context.Background()
	r := rid(1, 1)
	e.Exec(ctx, r, msg.Op{Code: msg.OpPut, Key: "k", Val: []byte("v")})
	// No vote happened; contract (b) does not apply, so abort is returned.
	if o := e.Decide(r, msg.OutcomeCommit); o != msg.OutcomeAbort {
		t.Fatalf("decide(commit) on unprepared branch = %v, want abort", o)
	}
	if _, ok := e.Store().Get("k"); ok {
		t.Fatal("write applied without prepare")
	}
}

func TestDecideIsIdempotent(t *testing.T) {
	e := newEngine(t)
	ctx := context.Background()
	r := rid(1, 1)
	e.Exec(ctx, r, msg.Op{Code: msg.OpAdd, Key: "n", Delta: 1})
	e.Vote(r)
	if o := e.Decide(r, msg.OutcomeCommit); o != msg.OutcomeCommit {
		t.Fatal("first decide failed")
	}
	// Duplicate decides (message retries) return the recorded outcome.
	for i := 0; i < 3; i++ {
		if o := e.Decide(r, msg.OutcomeCommit); o != msg.OutcomeCommit {
			t.Fatalf("duplicate decide #%d = %v", i, o)
		}
	}
	// Even a conflicting late abort cannot change a recorded commit.
	if o := e.Decide(r, msg.OutcomeAbort); o != msg.OutcomeCommit {
		t.Fatalf("late abort overrode commit: %v", o)
	}
	if n, _ := e.Store().GetInt("n"); n != 1 {
		t.Fatalf("n = %d, applied more than once", n)
	}
}

func TestVoteUnknownBranchIsYes(t *testing.T) {
	e := newEngine(t)
	// A db server never touched by the try votes yes on an empty branch
	// (prepare is broadcast to the full dlist in the paper's protocol).
	if v := e.Vote(rid(9, 1)); v != msg.VoteYes {
		t.Fatalf("vote on untouched branch = %v", v)
	}
	if o := e.Decide(rid(9, 1), msg.OutcomeCommit); o != msg.OutcomeCommit {
		t.Fatalf("decide = %v", o)
	}
}

func TestCheckGEPoisonsBranch(t *testing.T) {
	e := newEngine(t)
	ctx := context.Background()
	e.Seed([]kv.Write{{Key: "seats", Val: kv.EncodeInt(1)}})
	r := rid(1, 1)
	e.Exec(ctx, r, msg.Op{Code: msg.OpAdd, Key: "seats", Delta: -2})
	rep := e.Exec(ctx, r, msg.Op{Code: msg.OpCheckGE, Key: "seats", Delta: 0})
	if rep.OK {
		t.Fatalf("check must fail: %+v", rep)
	}
	// The paper: "user-level aborts ... regular result values that the
	// databases then can refuse to commit" — the refusal is a no vote.
	if v := e.Vote(r); v != msg.VoteNo {
		t.Fatalf("vote on poisoned branch = %v, want no", v)
	}
	if o := e.Decide(r, msg.OutcomeAbort); o != msg.OutcomeAbort {
		t.Fatalf("decide = %v", o)
	}
	if n, _ := e.Store().GetInt("seats"); n != 1 {
		t.Fatalf("seats = %d, want untouched 1", n)
	}
}

// TestLockConflictTimesOutAndPoisons: a conflicting write never waits at
// Exec; its vote waits on the undecided predecessor instead, and a
// predecessor that never decides poisons it after LockTimeout — the vote is
// no, while the predecessor is unaffected.
func TestLockConflictTimesOutAndPoisons(t *testing.T) {
	e := newEngine(t)
	ctx := context.Background()
	r1, r2 := rid(1, 1), rid(2, 1)
	e.Exec(ctx, r1, msg.Op{Code: msg.OpPut, Key: "hot", Val: []byte("a")})
	if rep := e.Exec(ctx, r2, msg.Op{Code: msg.OpPut, Key: "hot", Val: []byte("b")}); !rep.OK {
		t.Fatalf("conflicting write must join the chain, not wait: %+v", rep)
	}
	start := time.Now()
	if v := e.Vote(r2); v != msg.VoteNo {
		t.Fatalf("vote behind an undecided predecessor = %v, want no", v)
	}
	if waited := time.Since(start); waited < 100*time.Millisecond {
		t.Fatalf("vote answered after %v, before the 100ms gate bound", waited)
	}
	e.Vote(r1)
	if o := e.Decide(r1, msg.OutcomeCommit); o != msg.OutcomeCommit {
		t.Fatalf("r1 decide = %v", o)
	}
	if v, _ := e.Store().Get("hot"); string(v) != "a" {
		t.Fatalf("hot = %q, want r1's write", v)
	}
}

func TestExecAfterPrepareRejected(t *testing.T) {
	e := newEngine(t)
	ctx := context.Background()
	r := rid(1, 1)
	e.Exec(ctx, r, msg.Op{Code: msg.OpPut, Key: "k", Val: []byte("v")})
	e.Vote(r)
	if rep := e.Exec(ctx, r, msg.Op{Code: msg.OpPut, Key: "k2", Val: []byte("late")}); rep.OK {
		t.Fatal("exec after prepare must fail")
	}
}

func TestRecoveryRestoresPreparedBranch(t *testing.T) {
	st := stablestore.New(0)
	e1, err := Open(st, Config{Self: id.DBServer(1)})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	r := rid(1, 1)
	e1.Seed([]kv.Write{{Key: "acct", Val: kv.EncodeInt(100)}})
	e1.Exec(ctx, r, msg.Op{Code: msg.OpAdd, Key: "acct", Delta: -40})
	if v := e1.Vote(r); v != msg.VoteYes {
		t.Fatal("vote failed")
	}
	// Crash: reopen over the same stable storage.
	e2, err := Open(st, Config{Self: id.DBServer(1)})
	if err != nil {
		t.Fatal(err)
	}
	if e2.Incarnation() != e1.Incarnation()+1 {
		t.Fatalf("incarnation %d -> %d, want +1", e1.Incarnation(), e2.Incarnation())
	}
	indoubt := e2.InDoubt()
	if len(indoubt) != 1 || indoubt[0] != r {
		t.Fatalf("InDoubt = %v", indoubt)
	}
	// The in-doubt branch heads acct's chain again: a post-recovery writer
	// reads its pending value and its vote is gated until the decide.
	w := rid(2, 1)
	if rep := e2.Exec(ctx, w, msg.Op{Code: msg.OpAdd, Key: "acct", Delta: 1}); !rep.OK || rep.Num != 61 {
		t.Fatalf("post-recovery add = %+v, want 61 on the in-doubt 60", rep)
	}
	_, replies, _ := e2.DecideAndVoteBatchSpec(nil, []VoteReq{{RID: w, From: id.AppServer(1)}})
	if len(replies) != 0 {
		t.Fatalf("post-recovery writer voted %v ahead of the in-doubt branch", replies)
	}
	// Honour the commit after recovery (XA contract across crashes); the
	// same drain releases and answers the gated vote.
	outs, replies, _ := e2.DecideAndVoteBatchSpec([]DecideReq{{RID: r, O: msg.OutcomeCommit}}, nil)
	if outs[0] != msg.OutcomeCommit {
		t.Fatalf("decide after recovery = %v", outs[0])
	}
	if len(replies) != 1 || replies[0].RID != w || replies[0].V != msg.VoteYes {
		t.Fatalf("released votes = %v, want the writer's yes", replies)
	}
	if n, _ := e2.Store().GetInt("acct"); n != 60 {
		t.Fatalf("acct = %d, want 60", n)
	}
}

func TestRecoveryLosesUnpreparedWork(t *testing.T) {
	st := stablestore.New(0)
	e1, _ := Open(st, Config{Self: id.DBServer(1)})
	ctx := context.Background()
	r := rid(1, 1)
	e1.Exec(ctx, r, msg.Op{Code: msg.OpPut, Key: "k", Val: []byte("transient")})
	// Crash before prepare.
	e2, _ := Open(st, Config{Self: id.DBServer(1)})
	if len(e2.InDoubt()) != 0 {
		t.Fatal("unprepared branch survived the crash")
	}
	if _, ok := e2.Store().Get("k"); ok {
		t.Fatal("unprepared write survived the crash")
	}
	// Voting now prepares an EMPTY branch and says yes; the protocol's
	// incarnation check is what protects against committing the hole.
	if v := e2.Vote(r); v != msg.VoteYes {
		t.Fatalf("vote = %v", v)
	}
	if e2.Incarnation() == e1.Incarnation() {
		t.Fatal("incarnation must change so app servers detect the loss")
	}
}

func TestCommittedStateSurvivesRepeatedCrashes(t *testing.T) {
	st := stablestore.New(0)
	ctx := context.Background()
	e, _ := Open(st, Config{Self: id.DBServer(1)})
	e.Seed([]kv.Write{{Key: "acct", Val: kv.EncodeInt(0)}})
	for i := uint64(1); i <= 5; i++ {
		r := rid(i, 1)
		e.Exec(ctx, r, msg.Op{Code: msg.OpAdd, Key: "acct", Delta: 10})
		e.Vote(r)
		e.Decide(r, msg.OutcomeCommit)
		// Crash and recover between every transaction.
		var err error
		e, err = Open(st, Config{Self: id.DBServer(1)})
		if err != nil {
			t.Fatal(err)
		}
		if n, _ := e.Store().GetInt("acct"); n != int64(i)*10 {
			t.Fatalf("after %d commits and crashes: acct = %d", i, n)
		}
		// Idempotence across recovery: re-deciding returns the recorded outcome.
		if o := e.Decide(r, msg.OutcomeCommit); o != msg.OutcomeCommit {
			t.Fatalf("recorded outcome lost across crash: %v", o)
		}
	}
}

// onePhase runs one single-phase commit (Commit1P) through the drain entry
// point, as the data server does.
func onePhase(e *Engine, r id.ResultID) msg.Outcome {
	outs, _ := drain(e, []DecideReq{{RID: r, OnePhase: true}}, nil)
	return outs[0]
}

func TestCommitDirectBaselinePath(t *testing.T) {
	e := newEngine(t)
	ctx := context.Background()
	r := rid(1, 1)
	e.Exec(ctx, r, msg.Op{Code: msg.OpAdd, Key: "n", Delta: 7})
	if o := onePhase(e, r); o != msg.OutcomeCommit {
		t.Fatalf("single-phase commit = %v", o)
	}
	if n, _ := e.Store().GetInt("n"); n != 7 {
		t.Fatalf("n = %d", n)
	}
	// Poisoned branches abort.
	r2 := rid(2, 1)
	e.Seed([]kv.Write{{Key: "s", Val: kv.EncodeInt(0)}})
	e.Exec(ctx, r2, msg.Op{Code: msg.OpCheckGE, Key: "s", Delta: 5})
	if o := onePhase(e, r2); o != msg.OutcomeAbort {
		t.Fatalf("single-phase commit of a poisoned branch = %v", o)
	}
}

// TestCommitDirectRespectsVoteGate: a branch that read a chain
// predecessor's pending value must not commit ahead of that predecessor's
// outcome. Single-phase commit cannot wait for it, so the branch aborts, and
// the store holds only what committed.
func TestCommitDirectRespectsVoteGate(t *testing.T) {
	e := newEngine(t)
	ctx := context.Background()
	a, b := rid(1, 1), rid(2, 1)
	e.Exec(ctx, a, msg.Op{Code: msg.OpAdd, Key: "k", Delta: 1})
	if rep := e.Exec(ctx, b, msg.Op{Code: msg.OpAdd, Key: "k", Delta: 1}); !rep.OK || rep.Num != 2 {
		t.Fatalf("b's add = %+v, want it to read a's pending 1", rep)
	}
	ob := onePhase(e, b)
	e.Decide(a, msg.OutcomeAbort)
	want := int64(0)
	if ob == msg.OutcomeCommit {
		want = 1
	}
	if n, _ := e.Store().GetInt("k"); n != want {
		t.Fatalf("single-phase commit of b = %v and a aborted, but the store holds k = %d, want %d", ob, n, want)
	}
}

func TestOpSleepSimulatesWork(t *testing.T) {
	e := newEngine(t)
	ctx := context.Background()
	start := time.Now()
	rep := e.Exec(ctx, rid(1, 1), msg.Op{Code: msg.OpSleep, Delta: int64(30 * time.Millisecond)})
	if !rep.OK {
		t.Fatalf("sleep: %+v", rep)
	}
	if el := time.Since(start); el < 30*time.Millisecond {
		t.Errorf("sleep took %v", el)
	}
}

func TestUnknownOpRejected(t *testing.T) {
	e := newEngine(t)
	if rep := e.Exec(context.Background(), rid(1, 1), msg.Op{Code: msg.OpCode(99)}); rep.OK {
		t.Fatal("unknown op accepted")
	}
}

func TestConcurrentTransactionsSerializable(t *testing.T) {
	// 8 workers each transfer 1 unit from acct/a to acct/b 25 times, with
	// conflicts resolved by lock timeouts and retries. Total money is
	// conserved and the final balances reflect exactly the committed count.
	e := newEngine(t)
	e.Seed([]kv.Write{
		{Key: "acct/a", Val: kv.EncodeInt(1000)},
		{Key: "acct/b", Val: kv.EncodeInt(0)},
	})
	ctx := context.Background()
	var committed int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				r := id.ResultID{Client: id.Client(w + 1), Seq: uint64(i), Try: 1}
				ok1 := e.Exec(ctx, r, msg.Op{Code: msg.OpAdd, Key: "acct/a", Delta: -1}).OK
				ok2 := false
				if ok1 {
					ok2 = e.Exec(ctx, r, msg.Op{Code: msg.OpAdd, Key: "acct/b", Delta: 1}).OK
				}
				if ok1 && ok2 && e.Vote(r) == msg.VoteYes {
					if e.Decide(r, msg.OutcomeCommit) == msg.OutcomeCommit {
						mu.Lock()
						committed++
						mu.Unlock()
						continue
					}
				}
				e.Decide(r, msg.OutcomeAbort)
			}
		}()
	}
	wg.Wait()
	a, _ := e.Store().GetInt("acct/a")
	b, _ := e.Store().GetInt("acct/b")
	if a+b != 1000 {
		t.Fatalf("money not conserved: a=%d b=%d", a, b)
	}
	if b != committed {
		t.Fatalf("b=%d but committed=%d transfers", b, committed)
	}
	if committed == 0 {
		t.Fatal("no transaction ever committed")
	}
}

func TestForcedWritesAccounting(t *testing.T) {
	st := stablestore.New(0)
	e, _ := Open(st, Config{Self: id.DBServer(1)})
	ctx := context.Background()
	base := st.ForcedWrites()
	r := rid(1, 1)
	e.Exec(ctx, r, msg.Op{Code: msg.OpPut, Key: "k", Val: []byte("v")})
	e.Vote(r)                      // forced prepared record
	e.Decide(r, msg.OutcomeCommit) // forced commit record
	if got := st.ForcedWrites() - base; got != 2 {
		t.Fatalf("forced writes for prepare+commit = %d, want 2", got)
	}
}

func TestBranchStatusReporting(t *testing.T) {
	e := newEngine(t)
	ctx := context.Background()
	if _, ok := e.BranchStatus(rid(1, 1)); ok {
		t.Fatal("unknown branch reported a status")
	}
	e.Exec(ctx, rid(1, 1), msg.Op{Code: msg.OpPut, Key: "k", Val: nil})
	if s, _ := e.BranchStatus(rid(1, 1)); s != StatusActive {
		t.Fatalf("status = %v", s)
	}
	e.Vote(rid(1, 1))
	if s, _ := e.BranchStatus(rid(1, 1)); s != StatusPrepared {
		t.Fatalf("status = %v", s)
	}
	e.Decide(rid(1, 1), msg.OutcomeCommit)
	if s, _ := e.BranchStatus(rid(1, 1)); s != StatusCommitted {
		t.Fatalf("status = %v", s)
	}
	for _, s := range []BranchStatus{StatusActive, StatusPrepared, StatusCommitted, StatusAborted, BranchStatus(9)} {
		if s.String() == "" {
			t.Error("empty status string")
		}
	}
}

func TestAbortActiveBranches(t *testing.T) {
	e := newEngine(t)
	ctx := context.Background()
	e.Exec(ctx, rid(1, 1), msg.Op{Code: msg.OpPut, Key: "a", Val: nil})
	e.Exec(ctx, rid(2, 1), msg.Op{Code: msg.OpPut, Key: "b", Val: nil})
	e.Vote(rid(2, 1)) // prepared: must survive
	if n := e.AbortActiveBranches(); n != 1 {
		t.Fatalf("aborted %d branches, want 1", n)
	}
	if s, _ := e.BranchStatus(rid(1, 1)); s != StatusAborted {
		t.Fatalf("active branch not aborted: %v", s)
	}
	if s, _ := e.BranchStatus(rid(2, 1)); s != StatusPrepared {
		t.Fatalf("prepared branch harmed: %v", s)
	}
}

func TestSeedIsDurable(t *testing.T) {
	st := stablestore.New(0)
	e1, _ := Open(st, Config{Self: id.DBServer(1)})
	e1.Seed([]kv.Write{{Key: "flights/LX1", Val: kv.EncodeInt(42)}})
	e2, err := Open(st, Config{Self: id.DBServer(1)})
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := e2.Store().GetInt("flights/LX1"); n != 42 {
		t.Fatalf("seeded value lost across crash: %d", n)
	}
}

func TestManyBranchesStress(t *testing.T) {
	e := newEngine(t)
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				r := id.ResultID{Client: id.Client(w + 1), Seq: uint64(i), Try: 1}
				key := fmt.Sprintf("k/%d/%d", w, i)
				e.Exec(ctx, r, msg.Op{Code: msg.OpPut, Key: key, Val: []byte("v")})
				if e.Vote(r) == msg.VoteYes {
					e.Decide(r, msg.OutcomeCommit)
				}
			}
		}()
	}
	wg.Wait()
	if e.Store().Len() != 8*50 {
		t.Fatalf("store has %d keys, want %d", e.Store().Len(), 8*50)
	}
}
