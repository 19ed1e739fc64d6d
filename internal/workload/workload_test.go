package workload

import (
	"context"
	"errors"
	"testing"
	"time"

	"etx/internal/baseline"
	"etx/internal/core"
	"etx/internal/id"
	"etx/internal/kv"
	"etx/internal/msg"
)

// Both transaction handles must satisfy the shared Execer surface so every
// protocol runs identical business code.
var (
	_ Execer = (*core.Tx)(nil)
	_ Execer = (*baseline.Tx)(nil)
)

// fakeExecer executes ops against an in-memory map, mimicking a single
// database branch (read-your-writes, CheckGE, Sleep).
type fakeExecer struct {
	data   map[string]int64
	failAt string // key whose access fails hard
	ops    []msg.Op
}

func newFakeExecer() *fakeExecer {
	return &fakeExecer{data: make(map[string]int64)}
}

func (f *fakeExecer) DBs() []id.NodeID {
	return []id.NodeID{id.DBServer(1), id.DBServer(2), id.DBServer(3)}
}

func (f *fakeExecer) Exec(ctx context.Context, db id.NodeID, op msg.Op) (msg.OpResult, error) {
	f.ops = append(f.ops, op)
	if op.Key != "" && op.Key == f.failAt {
		return msg.OpResult{}, errors.New("injected failure")
	}
	switch op.Code {
	case msg.OpGet:
		return msg.OpResult{Num: f.data[op.Key], OK: true}, nil
	case msg.OpAdd:
		f.data[op.Key] += op.Delta
		return msg.OpResult{Num: f.data[op.Key], OK: true}, nil
	case msg.OpCheckGE:
		if f.data[op.Key] < op.Delta {
			return msg.OpResult{Num: f.data[op.Key], OK: false, Err: "check failed"}, nil
		}
		return msg.OpResult{Num: f.data[op.Key], OK: true}, nil
	case msg.OpSleep:
		return msg.OpResult{OK: true}, nil
	case msg.OpPut:
		return msg.OpResult{OK: true}, nil
	default:
		return msg.OpResult{OK: false, Err: "unknown op"}, nil
	}
}

func TestBankEncodingRoundTrip(t *testing.T) {
	req := BankRequest{Account: "alice", Amount: -25}
	b := EncodeBank(req)
	if len(b) == 0 {
		t.Fatal("empty encoding")
	}
	x := newFakeExecer()
	x.data["acct/alice"] = 100
	res, err := Bank(context.Background(), x, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeBankResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if out.Account != "alice" || out.Balance != 75 {
		t.Fatalf("result = %+v", out)
	}
}

func TestBankSQLWorkEmitsSleepOp(t *testing.T) {
	x := newFakeExecer()
	_, err := Bank(context.Background(), x, EncodeBank(BankRequest{Account: "a", Amount: 1}), 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(x.ops) == 0 || x.ops[0].Code != msg.OpSleep || x.ops[0].Delta != int64(5*time.Millisecond) {
		t.Fatalf("ops = %+v, want a leading sleep", x.ops)
	}
}

func TestBankWithdrawalGuardsOverdraft(t *testing.T) {
	x := newFakeExecer()
	x.data["acct/a"] = 10
	_, err := Bank(context.Background(), x, EncodeBank(BankRequest{Account: "a", Amount: -5}), 0)
	if err != nil {
		t.Fatal(err)
	}
	// A CheckGE op must have been issued for the withdrawal.
	found := false
	for _, op := range x.ops {
		if op.Code == msg.OpCheckGE {
			found = true
		}
	}
	if !found {
		t.Fatal("withdrawal must issue an overdraft guard")
	}
	// Deposits need no guard.
	x2 := newFakeExecer()
	Bank(context.Background(), x2, EncodeBank(BankRequest{Account: "a", Amount: 5}), 0)
	for _, op := range x2.ops {
		if op.Code == msg.OpCheckGE {
			t.Fatal("deposit must not issue a guard")
		}
	}
}

func TestBankRejectsGarbage(t *testing.T) {
	if _, err := Bank(context.Background(), newFakeExecer(), []byte("{"), 0); err == nil {
		t.Fatal("garbage request accepted")
	}
	if _, err := DecodeBankResult([]byte("nope")); err == nil {
		t.Fatal("garbage result accepted")
	}
}

func TestBankSeed(t *testing.T) {
	ws := BankSeed(map[string]int64{"alice": 100})
	if len(ws) != 1 || ws[0].Key != "acct/alice" {
		t.Fatalf("seed = %v", ws)
	}
	v, err := kv.DecodeInt(ws[0].Val)
	if err != nil || v != 100 {
		t.Fatalf("seed value = %d (%v)", v, err)
	}
}
