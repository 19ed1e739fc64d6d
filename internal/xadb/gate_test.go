package xadb

import (
	"context"
	"sync"
	"testing"
	"time"

	"etx/internal/id"
	"etx/internal/kv"
	"etx/internal/msg"
	"etx/internal/stablestore"
)

// TestConcurrentSameKeyCommitsAll drives Exec(Add)/Vote/Decide on one key
// from 32 goroutines through the bare engine, with no planner ordering the
// Execs: each chain step is atomic, so no write lands behind the chain tail,
// every try commits, and no deposit is lost.
func TestConcurrentSameKeyCommitsAll(t *testing.T) {
	const workers, each, seed = 32, 40, 1000
	e := newEngine(t)
	e.Seed([]kv.Write{{Key: "hot", Val: kv.EncodeInt(seed)}})
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan string, workers*each)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r := id.ResultID{Client: id.Client(w + 1), Seq: uint64(i), Try: 1}
				if rep := e.Exec(ctx, r, msg.Op{Code: msg.OpAdd, Key: "hot", Delta: 1}); !rep.OK {
					errs <- "exec: " + rep.Err
					return
				}
				if v := e.Vote(r); v != msg.VoteYes {
					errs <- "vote " + v.String()
					return
				}
				if o := e.Decide(r, msg.OutcomeCommit); o != msg.OutcomeCommit {
					errs <- "decide " + o.String()
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n, _ := e.Store().GetInt("hot"); n != seed+workers*each {
		t.Fatalf("hot = %d, want %d", n, seed+workers*each)
	}
	if st := e.SpecStats(); st.Rewrites != 0 || st.Cascades != 0 {
		t.Fatalf("%s: a same-key step was split", st)
	}
}

// TestParkedVoteReleasedByDecidingDrain: a vote gated on an undecided
// predecessor is parked, not answered; the drain whose decide opens the gate
// returns it with its own replies, the commit and the released vote's
// prepared record appended unforced for the caller's one device force (the
// data server's TestParkedVoteLeavesWithDecidingDrain counts that force).
func TestParkedVoteReleasedByDecidingDrain(t *testing.T) {
	st := stablestore.New(time.Microsecond) // a device that counts its forces
	e, err := Open(st, Config{Self: id.DBServer(1), LockTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	pred, succ := rid(1, 1), rid(2, 1)
	app1, app2 := id.AppServer(1), id.AppServer(2)
	e.Exec(ctx, pred, msg.Op{Code: msg.OpAdd, Key: "hot", Delta: 1})
	e.Exec(ctx, succ, msg.Op{Code: msg.OpAdd, Key: "hot", Delta: 1})

	_, replies, dirty := e.DecideAndVoteBatchSpec(nil, []VoteReq{{RID: pred, From: app1}, {RID: succ, From: app2}})
	if !dirty {
		t.Fatal("first drain prepared the predecessor but reported no record to force")
	}
	if len(replies) != 1 || replies[0] != (VoteReply{RID: pred, To: app1, V: msg.VoteYes}) {
		t.Fatalf("first drain replies = %v, want only the predecessor's yes", replies)
	}
	if d := e.SpecStats().Deferred; d != 1 {
		t.Fatalf("deferred votes = %d, want 1 parked", d)
	}

	syncs := st.Syncs()
	outs, replies, dirty := e.DecideAndVoteBatchSpec([]DecideReq{{RID: pred, O: msg.OutcomeCommit}}, nil)
	if outs[0] != msg.OutcomeCommit {
		t.Fatalf("decide = %v", outs[0])
	}
	if len(replies) != 1 || replies[0] != (VoteReply{RID: succ, To: app2, V: msg.VoteYes}) {
		t.Fatalf("deciding drain replies = %v, want the released successor's yes to app server 2", replies)
	}
	if got := st.Syncs() - syncs; !dirty || got != 0 {
		t.Fatalf("deciding drain: dirty=%v and %d device forces paid, want its records left to the caller's one force", dirty, got)
	}
	if s, _ := e.BranchStatus(succ); s != StatusPrepared {
		t.Fatalf("released successor is %v, want prepared", s)
	}
}

// TestParkedVoteExpiresAndVotesNo: a parked vote whose predecessor never
// decides is poisoned by the sweep once LockTimeout has passed and answered
// no to the node that asked; before the deadline the sweep leaves it parked.
func TestParkedVoteExpiresAndVotesNo(t *testing.T) {
	const timeout = 50 * time.Millisecond
	e, err := Open(stablestore.New(0), Config{Self: id.DBServer(1), LockTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	pred, succ := rid(1, 1), rid(2, 1)
	e.Exec(ctx, pred, msg.Op{Code: msg.OpAdd, Key: "hot", Delta: 1})
	e.Exec(ctx, succ, msg.Op{Code: msg.OpAdd, Key: "hot", Delta: 1})
	if _, replies, _ := e.DecideAndVoteBatchSpec(nil, []VoteReq{{RID: succ, From: id.AppServer(3)}}); len(replies) != 0 {
		t.Fatalf("gated vote answered: %v", replies)
	}
	if replies := e.ExpireParked(); len(replies) != 0 {
		t.Fatalf("sweep before the deadline answered %v", replies)
	}
	time.Sleep(timeout + 10*time.Millisecond)
	replies := e.ExpireParked()
	if len(replies) != 1 || replies[0] != (VoteReply{RID: succ, To: id.AppServer(3), V: msg.VoteNo}) {
		t.Fatalf("sweep after the deadline = %v, want no to app server 3", replies)
	}
	if s, _ := e.BranchStatus(succ); s != StatusAborted {
		t.Fatalf("expired branch is %v, want aborted", s)
	}
	if s, _ := e.BranchStatus(pred); s != StatusActive {
		t.Fatalf("predecessor is %v, want untouched", s)
	}
}

// TestCrossedKeysResolveByGateTimeout: two tries each first on one of two
// keys (T1 A then B, T2 B then A) wait on each other's decide. Neither vote
// is answered before LockTimeout; the sweep then answers both no, and a
// retry of each commits with exact balances.
func TestCrossedKeysResolveByGateTimeout(t *testing.T) {
	const timeout = 50 * time.Millisecond
	e, err := Open(stablestore.New(0), Config{Self: id.DBServer(1), LockTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	app := id.AppServer(1)
	add := func(r id.ResultID, key string) {
		t.Helper()
		if rep := e.Exec(ctx, r, msg.Op{Code: msg.OpAdd, Key: key, Delta: 1}); !rep.OK {
			t.Fatalf("exec %s on %s: %s", r, key, rep.Err)
		}
	}
	t1, t2 := rid(1, 1), rid(2, 1)
	add(t1, "a")
	add(t2, "b")
	add(t1, "b")
	add(t2, "a")
	if _, replies, _ := e.DecideAndVoteBatchSpec(nil, []VoteReq{{RID: t1, From: app}, {RID: t2, From: app}}); len(replies) != 0 {
		t.Fatalf("crossed votes answered before the timeout: %v", replies)
	}
	time.Sleep(timeout + 10*time.Millisecond)
	replies := e.ExpireParked()
	if len(replies) != 2 || replies[0].V != msg.VoteNo || replies[1].V != msg.VoteNo {
		t.Fatalf("sweep after the deadline = %v, want no for both tries", replies)
	}
	for _, r := range []id.ResultID{t1, t2} {
		if s, _ := e.BranchStatus(r); s != StatusAborted {
			t.Fatalf("%s is %v, want aborted", r, s)
		}
	}

	for _, r := range []id.ResultID{rid(1, 2), rid(2, 2)} {
		add(r, "a")
		add(r, "b")
		if v := e.Vote(r); v != msg.VoteYes {
			t.Fatalf("retry %s voted %v", r, v)
		}
		if o := e.Decide(r, msg.OutcomeCommit); o != msg.OutcomeCommit {
			t.Fatalf("retry %s decided %v", r, o)
		}
	}
	for _, k := range []string{"a", "b"} {
		if n, _ := e.Store().GetInt(k); n != 2 {
			t.Fatalf("%s = %d, want 2", k, n)
		}
	}
}
