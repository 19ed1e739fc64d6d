package deploy

import (
	"flag"
	"fmt"
	"reflect"
	"testing"
	"time"

	"etx/internal/core"
	"etx/internal/id"
	"etx/internal/msg"
	"etx/internal/repl"
	"etx/internal/stablestore"
	"etx/internal/transport"
)

// TestEveryTuningFieldHasAFlagAndALanding walks Tuning by reflection: every
// field must be settable through a flag of RegisterFlags, and the value set
// must come out of Resolve in the configuration of the process that runs the
// knob. A field added without its flag, or without its row below, fails.
func TestEveryTuningFieldHasAFlagAndALanding(t *testing.T) {
	var tuning Tuning
	fs := flag.NewFlagSet("tuning", flag.ContinueOnError)
	tuning.RegisterFlags(fs)

	// Give every flag a value no default produces, distinct per flag.
	n := 0
	fs.VisitAll(func(f *flag.Flag) {
		n++
		var v string
		switch reflect.ValueOf(f.Value).Elem().Kind() {
		case reflect.Bool:
			v = "true"
		case reflect.Int64: // time.Duration
			v = fmt.Sprintf("%dms", 100+n)
		default:
			v = fmt.Sprint(100 + n)
		}
		if err := fs.Set(f.Name, v); err != nil {
			t.Fatalf("-%s %s: %v", f.Name, v, err)
		}
	})
	typ := reflect.TypeOf(tuning)
	if n != typ.NumField() {
		t.Errorf("RegisterFlags registers %d flags for the %d fields of Tuning", n, typ.NumField())
	}

	r := tuning.Resolve()
	if r != tuning {
		t.Fatalf("Resolve changed explicitly set values:\n got %+v\nwant %+v", r, tuning)
	}
	app := r.appConfig(core.AppServerConfig{})
	bak := r.backupConfig(repl.BackupConfig{})
	eng := r.engineConfig(id.DBServer(1))

	// Where each knob lands: the configurations of every process that runs it.
	landings := map[string][]any{
		"RetainSlots":       {app.RetainSlots},
		"Workers":           {app.Workers},
		"LockTimeout":       {eng.LockTimeout},
		"HeartbeatInterval": {app.HeartbeatInterval, bak.HeartbeatInterval},
		"SuspectTimeout":    {app.SuspectTimeout, bak.SuspectTimeout},
		"ReplicaFactor":     {len(Groups(1, r.ReplicaFactor)[0])},
	}
	val := reflect.ValueOf(tuning)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		set := val.Field(i).Interface()
		if val.Field(i).IsZero() {
			t.Errorf("Tuning.%s is not bound to any flag", name)
		}
		got, ok := landings[name]
		if !ok {
			t.Errorf("Tuning.%s has no landing in this test: say where the knob is applied", name)
		}
		for _, g := range got {
			if g != set {
				t.Errorf("Tuning.%s = %v set by flag, but %v reached the process configuration", name, set, g)
			}
		}
	}
}

// TestResolveDefaults pins the defaulting every caller used to spell out for
// itself.
func TestResolveDefaults(t *testing.T) {
	for _, tc := range []struct {
		name     string
		in, want Tuning
	}{
		{"zero value is paper-exact",
			Tuning{},
			Tuning{ReplicaFactor: 1}},
		{"set values are kept",
			Tuning{Workers: 8, RetainSlots: 64},
			Tuning{Workers: 8, RetainSlots: 64, ReplicaFactor: 1}},
		{"a negative replica factor is 1, timers are left to their packages",
			Tuning{ReplicaFactor: -3, SuspectTimeout: time.Second},
			Tuning{ReplicaFactor: 1, SuspectTimeout: time.Second}},
	} {
		got := tc.in.Resolve()
		if got != tc.want {
			t.Errorf("%s:\n got %+v\nwant %+v", tc.name, got, tc.want)
		}
		if again := got.Resolve(); again != got {
			t.Errorf("%s: Resolve is not idempotent: %+v then %+v", tc.name, got, again)
		}
	}
}

// TestBatchingPoints pins the one point every deployment runs, the zero
// Tuning included — the point the end-to-end benchmark's rig wires by hand:
// a data node started here covers the forced records of every drain that
// queued behind a force in flight with one fsync, where a paper-exact
// store of its own would pay one per Prepare.
func TestBatchingPoints(t *testing.T) {
	const prepares = 16
	net := transport.NewMemNetwork(transport.Options{})
	defer net.Close()
	self, app := id.DBServer(1), id.AppServer(1)
	ep, err := net.Attach(self)
	if err != nil {
		t.Fatal(err)
	}
	appEP, err := net.Attach(app)
	if err != nil {
		t.Fatal(err)
	}
	store := stablestore.New(0)
	n, err := StartDataNode(DataNodeConfig{Self: self, AppServers: []id.NodeID{app}, Endpoint: ep, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	store.SetForceLatency(20 * time.Millisecond)
	syncs := store.Syncs()

	for seq := uint64(1); seq <= prepares; seq++ {
		rid := id.ResultID{Client: id.Client(1), Seq: seq, Try: 1}
		_ = appEP.Send(msg.Envelope{To: self, Payload: msg.Prepare{RID: rid}})
	}
	votes := 0
	for votes < prepares {
		select {
		case env := <-appEP.Recv():
			if b, ok := env.Payload.(msg.Batch); ok {
				votes += len(b.Msgs)
			} else {
				votes++
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d votes arrived", votes, prepares)
		}
	}
	if got := store.Syncs() - syncs; got >= prepares/2 {
		t.Errorf("%d Prepares paid %d fsyncs: the zero Tuning's data node did not share forces", prepares, got)
	}
}

// TestGroupsNumbering pins the replica numbering the binaries' address books
// are written against.
func TestGroupsNumbering(t *testing.T) {
	got := Groups(2, 3)
	want := [][]id.NodeID{
		{id.DBServer(1), id.DBServer(3), id.DBServer(5)},
		{id.DBServer(2), id.DBServer(4), id.DBServer(6)},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Groups(2, 3) = %v, want %v", got, want)
	}
}
