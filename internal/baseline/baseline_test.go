package baseline

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"etx/internal/core"
	"etx/internal/fd"
	"etx/internal/id"
	"etx/internal/kv"
	"etx/internal/msg"
	"etx/internal/stablestore"
	"etx/internal/trace"
	"etx/internal/transport"
	"etx/internal/workload"
	"etx/internal/xadb"
)

// rig wires the database tier (core.DataServer over xadb) plus whatever
// baseline servers a test needs.
type rig struct {
	t   *testing.T
	net *transport.MemNetwork
	dbs []id.NodeID
	eng map[id.NodeID]*xadb.Engine
}

func newRig(t *testing.T, nDBs int, seed []kv.Write) *rig {
	t.Helper()
	r := &rig{
		t:   t,
		net: transport.NewMemNetwork(transport.Options{}),
		eng: make(map[id.NodeID]*xadb.Engine),
	}
	t.Cleanup(r.net.Close)
	for i := 1; i <= nDBs; i++ {
		dbID := id.DBServer(i)
		r.dbs = append(r.dbs, dbID)
		ep, err := r.net.Attach(dbID)
		if err != nil {
			t.Fatal(err)
		}
		engine, err := xadb.Open(stablestore.New(0), xadb.Config{Self: dbID, LockTimeout: 100 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if len(seed) > 0 {
			engine.Seed(seed)
		}
		srv, err := core.NewDataServer(core.DataServerConfig{
			Self: dbID, Engine: engine, Endpoint: ep,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv.Start()
		t.Cleanup(srv.Stop)
		r.eng[dbID] = engine
	}
	return r
}

func (r *rig) attach(n id.NodeID) transport.Endpoint {
	r.t.Helper()
	ep, err := r.net.Attach(n)
	if err != nil {
		r.t.Fatal(err)
	}
	return ep
}

// pay adds amount to acct/dst on the first database.
func pay(ctx context.Context, tx workload.Execer, amount int64) ([]byte, error) {
	rep, err := tx.Exec(ctx, tx.DBs()[0], msg.Op{Code: msg.OpAdd, Key: "acct/dst", Delta: amount})
	if err != nil {
		return nil, err
	}
	return kv.EncodeInt(rep.Num), nil
}

// payLogic is pay for the primary-backup servers.
func payLogic(amount int64) Logic {
	return LogicFunc(func(ctx context.Context, tx *Tx, req []byte) ([]byte, error) {
		return pay(ctx, tx, amount)
	})
}

// corePay is pay for a core.AppServer.
func corePay(amount int64) core.Logic {
	return core.LogicFunc(func(ctx context.Context, tx *core.Tx, req []byte) ([]byte, error) {
		return pay(ctx, tx, amount)
	})
}

// payEverywhere adds amount to acct/dst on every database, so every one of
// them is a participant of the try.
func payEverywhere(amount int64) core.Logic {
	return core.LogicFunc(func(ctx context.Context, tx *core.Tx, req []byte) ([]byte, error) {
		for _, db := range tx.DBs() {
			if _, err := tx.Exec(ctx, db, msg.Op{Code: msg.OpAdd, Key: "acct/dst", Delta: amount}); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
}

func seed() []kv.Write {
	return []kv.Write{{Key: "acct/dst", Val: kv.EncodeInt(0)}}
}

// solo starts one core.AppServer writing its tries to log (core.NoLog for
// the unreliable baseline, a TwoPCLog for 2PC) and returns the one-shot
// client that drives it.
func solo(t *testing.T, r *rig, log core.TryLog, logic core.Logic, hooks *core.Hooks) *OneShotClient {
	t.Helper()
	appID := id.AppServer(1)
	srv, err := core.NewAppServer(core.AppServerConfig{
		Self: appID, AppServers: []id.NodeID{appID}, DataServers: r.dbs, Endpoint: r.attach(appID),
		Logic: logic, Log: log, Hooks: hooks,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(srv.Stop)
	return NewOneShotClient(id.Client(1), appID, r.attach(id.Client(1)))
}

func call(t *testing.T, cl *OneShotClient) msg.Decision {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	dec, err := cl.Call(ctx, []byte("pay"))
	if err != nil {
		t.Fatal(err)
	}
	return dec
}

func TestUnreliableHappyPath(t *testing.T) {
	r := newRig(t, 1, seed())
	dec := call(t, solo(t, r, core.NoLog, corePay(10), nil))
	if !dec.Committed() {
		t.Fatalf("decision = %v", dec)
	}
	if n, _ := r.eng[r.dbs[0]].Store().GetInt("acct/dst"); n != 10 {
		t.Fatalf("dst = %d", n)
	}
}

func TestUnreliablePoisonedBranchAborts(t *testing.T) {
	r := newRig(t, 1, seed())
	logic := core.LogicFunc(func(ctx context.Context, tx *core.Tx, req []byte) ([]byte, error) {
		if _, err := tx.Exec(ctx, tx.DBs()[0], msg.Op{Code: msg.OpCheckGE, Key: "acct/dst", Delta: 100}); err != nil {
			return nil, err
		}
		return []byte("nope"), nil
	})
	if dec := call(t, solo(t, r, core.NoLog, logic, nil)); dec.Committed() {
		t.Fatal("poisoned branch must abort")
	}
}

func TestTwoPCHappyPathForcesTwoLogWrites(t *testing.T) {
	r := newRig(t, 2, seed())
	log := stablestore.New(0)
	cl := solo(t, r, NewTwoPCLog(log), payEverywhere(5), nil)
	wire := trace.New(r.net, nil)
	dec := call(t, cl)
	if !dec.Committed() {
		t.Fatalf("decision = %v", dec)
	}
	if n, _ := r.eng[r.dbs[0]].Store().GetInt("acct/dst"); n != 5 {
		t.Fatalf("dst = %d", n)
	}
	if got := log.ForcedWrites(); got != 2 {
		t.Errorf("coordinator forced %d log writes, want 2 (start + outcome)", got)
	}
	// Both databases decided commit (atomic across the tier).
	for _, dbID := range r.dbs {
		rid := id.ResultID{Client: id.Client(1), Seq: 1, Try: 1}
		if o := r.eng[dbID].Outcomes()[rid]; o != msg.OutcomeCommit {
			t.Errorf("%v outcome = %v", dbID, o)
		}
	}
	// The forced log replaced the registers: the sniffer saw the 2PC
	// rounds, and no consensus or register traffic.
	r.net.Quiesce()
	counts := wire.Counts()
	if counts[msg.KindPrepare] != len(r.dbs) || counts[msg.KindDecide] != len(r.dbs) {
		t.Errorf("want one Prepare and one Decide per database: %s", trace.FormatCounts(counts))
	}
	for _, k := range []msg.Kind{msg.KindEstimate, msg.KindPropose, msg.KindAck, msg.KindNack,
		msg.KindDecision, msg.KindCheckpoint, msg.KindRegOps} {
		if counts[k] != 0 {
			t.Errorf("%d %v messages crossed the network: %s", counts[k], k, trace.FormatCounts(counts))
		}
	}
}

// TestTwoPCBlocksOnCoordinatorCrash demonstrates the paper's motivation: the
// coordinator crashes after prepare; the client learns nothing and the
// database sits in doubt, holding its locks.
func TestTwoPCBlocksOnCoordinatorCrash(t *testing.T) {
	r := newRig(t, 1, seed())
	appID := id.AppServer(1)
	var crashed atomic.Bool
	cl := solo(t, r, NewTwoPCLog(stablestore.New(0)), corePay(5), &core.Hooks{Crash: func(p core.CrashPoint, rid id.ResultID) {
		if p == core.PointAfterPrepare && crashed.CompareAndSwap(false, true) {
			r.net.Crash(appID)
		}
	}})

	ctx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
	defer cancel()
	_, err := cl.Call(ctx, []byte("pay"))
	if !errors.Is(err, ErrOutcomeUnknown) {
		t.Fatalf("err = %v, want ErrOutcomeUnknown (the at-most-once gap)", err)
	}
	if !crashed.Load() {
		t.Fatal("crash hook never fired")
	}
	// The database is blocked in doubt: the prepared branch survives,
	// holding its locks, with nobody to decide it.
	indoubt := r.eng[r.dbs[0]].InDoubt()
	if len(indoubt) != 1 {
		t.Fatalf("in-doubt branches = %v, want exactly one (2PC is blocking)", indoubt)
	}
}

// TestBaselineSpansAreFigure8Rows pins Figure 8's rows for one committed
// try of each baseline point, without timing anything: the unreliable
// server reports SQL and commit only (its prepare and log rows are empty),
// and 2PC reports each of its five rows once.
func TestBaselineSpansAreFigure8Rows(t *testing.T) {
	for _, tc := range []struct {
		name string
		log  func() core.TryLog
		want []core.Span
	}{
		{"unreliable", func() core.TryLog { return core.NoLog }, []core.Span{core.SpanSQL, core.SpanCommit}},
		{"2PC", func() core.TryLog { return NewTwoPCLog(stablestore.New(0)) }, []core.Span{
			core.SpanLogStart, core.SpanSQL, core.SpanPrepare, core.SpanLogOutcome, core.SpanCommit}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 1, seed())
			var mu sync.Mutex
			got := make(map[core.Span]int)
			hooks := &core.Hooks{Span: func(_ id.ResultID, s core.Span, _ time.Duration) {
				mu.Lock()
				got[s]++
				mu.Unlock()
			}}
			if dec := call(t, solo(t, r, tc.log(), corePay(1), hooks)); !dec.Committed() {
				t.Fatalf("decision = %v", dec)
			}
			want := make(map[core.Span]int)
			for _, s := range tc.want {
				want[s] = 1
			}
			mu.Lock()
			defer mu.Unlock()
			if !reflect.DeepEqual(got, want) {
				t.Errorf("spans = %v, want %v", got, want)
			}
		})
	}
}

// pbPair wires a primary-backup pair and a core.Client that retries across
// the two, like the paper's adapted scheme.
func pbPair(t *testing.T, r *rig, logic Logic, dets map[id.NodeID]fd.Detector, hooks map[id.NodeID]*core.Hooks) (map[id.NodeID]*PBServer, *core.Client) {
	t.Helper()
	a1, a2 := id.AppServer(1), id.AppServer(2)
	srvs := make(map[id.NodeID]*PBServer, 2)
	for _, pair := range []struct {
		self, peer id.NodeID
		primary    bool
	}{{a1, a2, true}, {a2, a1, false}} {
		det := dets[pair.self]
		if det == nil {
			det = &fd.Perfect{Truth: r.net, Peers: []id.NodeID{pair.peer}}
		}
		srv, err := NewPBServer(PBConfig{
			Self: pair.self, Peer: pair.peer, Primary: pair.primary,
			DataServers: r.dbs, Endpoint: r.attach(pair.self), Logic: logic,
			Detector: det, TakeoverInterval: 5 * time.Millisecond,
			Hooks: hooks[pair.self],
		})
		if err != nil {
			t.Fatal(err)
		}
		srv.Start()
		t.Cleanup(srv.Stop)
		srvs[pair.self] = srv
	}
	clEP := r.attach(id.Client(1))
	cl, err := core.NewClient(core.ClientConfig{
		Self: id.Client(1), AppServers: []id.NodeID{a1, a2}, Endpoint: clEP,
		Backoff: 50 * time.Millisecond, Rebroadcast: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	return srvs, cl
}

func TestPBHappyPath(t *testing.T) {
	r := newRig(t, 1, seed())
	_, cl := pbPair(t, r, payLogic(10), nil, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := cl.Issue(ctx, []byte("pay"))
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := kv.DecodeInt(res); n != 10 {
		t.Fatalf("result = %v", res)
	}
	if n, _ := r.eng[r.dbs[0]].Store().GetInt("acct/dst"); n != 10 {
		t.Fatalf("dst = %d", n)
	}
}

// TestPBFailoverWithPerfectDetector: primary crashes after recording the
// outcome at the backup; the backup finishes the commit and answers the
// client — exactly-once, because the detector is perfect.
func TestPBFailoverWithPerfectDetector(t *testing.T) {
	r := newRig(t, 1, seed())
	var crashed atomic.Bool
	hooks := map[id.NodeID]*core.Hooks{
		id.AppServer(1): {Crash: func(p core.CrashPoint, rid id.ResultID) {
			if p == core.PointAfterRegD && rid.Try == 1 && crashed.CompareAndSwap(false, true) {
				r.net.Crash(id.AppServer(1))
			}
		}},
	}
	_, cl := pbPair(t, r, payLogic(10), nil, hooks)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	res, err := cl.Issue(ctx, []byte("pay"))
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := kv.DecodeInt(res); n != 10 {
		t.Fatalf("result = %v", res)
	}
	if !crashed.Load() {
		t.Fatal("crash hook never fired")
	}
	if n, _ := r.eng[r.dbs[0]].Store().GetInt("acct/dst"); n != 10 {
		t.Fatalf("dst = %d, want exactly-once", n)
	}
}

// TestPBFalseSuspicionCausesInconsistency reproduces the paper's warning:
// with an unreliable detector, the backup aborts a try the (live) primary
// goes on to believe committed. The primary's recorded outcome and the
// database's recorded outcome disagree — an inconsistency impossible in the
// wo-register-based protocol (compare TestFalseSuspicionIsSafe in the
// cluster package).
func TestPBFalseSuspicionCausesInconsistency(t *testing.T) {
	r := newRig(t, 1, seed())
	backupDet := fd.NewScripted() // lies on demand
	var once atomic.Bool
	hooks := map[id.NodeID]*core.Hooks{
		id.AppServer(1): {Crash: func(p core.CrashPoint, rid id.ResultID) {
			if p == core.PointAfterPrepare && once.CompareAndSwap(false, true) {
				// Primary is alive, prepared (vote yes everywhere), but has
				// not recorded the outcome yet. Tell the backup the primary
				// is dead and give it time to "clean up".
				backupDet.Set(id.AppServer(1), true)
				time.Sleep(150 * time.Millisecond)
			}
		}},
	}
	dets := map[id.NodeID]fd.Detector{id.AppServer(2): backupDet}
	srvs, cl := pbPair(t, r, payLogic(10), dets, hooks)

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if _, err := cl.Issue(ctx, []byte("pay")); err != nil {
		t.Fatal(err)
	}

	rid := id.ResultID{Client: id.Client(1), Seq: 1, Try: 1}
	var primaryDec msg.Decision
	var ok bool
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if primaryDec, ok = srvs[id.AppServer(1)].RecordedOutcome(rid); ok {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !ok {
		t.Fatal("primary never recorded an outcome for try 1")
	}
	dbOutcome := r.eng[r.dbs[0]].Outcomes()[rid]
	if primaryDec.Outcome == msg.OutcomeCommit && dbOutcome == msg.OutcomeAbort {
		// The demonstrated inconsistency: the primary told (or would tell)
		// the client "commit" for a try the database aborted.
		return
	}
	t.Fatalf("expected the false-suspicion inconsistency; primary=%v db=%v",
		primaryDec.Outcome, dbOutcome)
}
