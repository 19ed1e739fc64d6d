package main

import (
	"reflect"
	"testing"

	"etx/internal/kv"
)

func TestParseSeed(t *testing.T) {
	acct := func(name string, bal int64) kv.Write {
		return kv.Write{Key: "acct/" + name, Val: kv.EncodeInt(bal)}
	}
	for _, tc := range []struct {
		spec    string
		want    []kv.Write
		wantErr bool
	}{
		{spec: "", want: nil},
		{spec: "alice=100,bob=100", want: []kv.Write{acct("alice", 100), acct("bob", 100)}},
		{spec: "alice", want: []kv.Write{acct("alice", 0)}},
		{spec: "alice=-5", want: []kv.Write{acct("alice", -5)}},
		{spec: " alice=1 ,,bob=2,", want: []kv.Write{acct("alice", 1), acct("bob", 2)}},
		{spec: "alice=1x", wantErr: true}, // was seeded as 1
		{spec: "=5", wantErr: true},       // was seeded as account "=5"
		{spec: "alice=", wantErr: true},
		{spec: "alice=1=2", wantErr: true},
		{spec: "alice=100,bob=ten", wantErr: true},
	} {
		got, err := parseSeed(tc.spec)
		if (err != nil) != tc.wantErr {
			t.Errorf("parseSeed(%q): err = %v, want error %v", tc.spec, err, tc.wantErr)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseSeed(%q) = %v, want %v", tc.spec, got, tc.want)
		}
	}
}
