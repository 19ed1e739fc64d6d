package deploy

import (
	"flag"
	"fmt"
	"reflect"
	"testing"
	"time"

	"etx/internal/core"
	"etx/internal/id"
	"etx/internal/repl"
)

// fakeStore records the group-commit settings applyStore installs.
type fakeStore struct {
	window   time.Duration
	maxBatch int
	adaptive bool
}

func (s *fakeStore) SetBatchWindow(d time.Duration) { s.window = d }
func (s *fakeStore) SetMaxBatch(n int)              { s.maxBatch = n }
func (s *fakeStore) SetAdaptive(on bool)            { s.adaptive = on }

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
	srv := r.serverConfig(core.DataServerConfig{})
	bak := r.backupConfig(repl.BackupConfig{})
	eng := r.engineConfig(id.DBServer(1))
	var store fakeStore
	r.applyStore(&store)

	// Where each knob lands: the configurations of every process that runs it.
	landings := map[string][]any{
		"BatchWindow":       {app.BatchWindow, store.window},
		"MaxBatch":          {app.MaxBatch, store.maxBatch},
		"DrainBatch":        {srv.MaxBatch},
		"CohortWindow":      {app.CohortWindow},
		"MaxCohort":         {app.MaxCohort},
		"AdaptiveWindows":   {app.AdaptiveWindows, store.adaptive},
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
	const us = time.Microsecond
	for _, tc := range []struct {
		name     string
		in, want Tuning
	}{
		{"zero value is paper-exact",
			Tuning{},
			Tuning{ReplicaFactor: 1}},
		{"a cap without a window is no batching",
			Tuning{MaxBatch: 7, MaxCohort: 9},
			Tuning{ReplicaFactor: 1}},
		{"a window gets cap 64, the drain follows",
			Tuning{BatchWindow: 300 * us},
			Tuning{BatchWindow: 300 * us, MaxBatch: 64, DrainBatch: 64, ReplicaFactor: 1}},
		{"an explicit cap stands",
			Tuning{BatchWindow: 300 * us, MaxBatch: 8, CohortWindow: 50 * us, MaxCohort: 4},
			Tuning{BatchWindow: 300 * us, MaxBatch: 8, DrainBatch: 8, CohortWindow: 50 * us, MaxCohort: 4, ReplicaFactor: 1}},
		{"adaptive defaults the windows to 500µs and 100µs",
			Tuning{AdaptiveWindows: true},
			Tuning{AdaptiveWindows: true, BatchWindow: 500 * us, MaxBatch: 64, DrainBatch: 64, CohortWindow: 100 * us, MaxCohort: 64, ReplicaFactor: 1}},
		{"adaptive keeps a window that was set",
			Tuning{AdaptiveWindows: true, BatchWindow: 2 * time.Millisecond},
			Tuning{AdaptiveWindows: true, BatchWindow: 2 * time.Millisecond, MaxBatch: 64, DrainBatch: 64, CohortWindow: 100 * us, MaxCohort: 64, ReplicaFactor: 1}},
		{"the windowless drain stands alone",
			Tuning{DrainBatch: 32},
			Tuning{DrainBatch: 32, ReplicaFactor: 1}},
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
