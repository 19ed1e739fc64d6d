// Package workload defines the business logic the experiments run: the
// paper's measured workload (updating a bank account on a single database,
// Appendix 3).
//
// Logic bodies are written once against the Execer interface, which both
// core.Tx and baseline.Tx satisfy, so every protocol runs byte-identical
// business code — the property that makes the Figure-8 comparison fair.
// core.Tx serves the replicated protocol and, through its TryLog seam, the
// unreliable and 2PC baselines; baseline.Tx serves primary-backup alone.
package workload

import (
	"context"
	"encoding/binary"
	"fmt"
	"time"

	"etx/internal/id"
	"etx/internal/kv"
	"etx/internal/msg"
)

// Execer is the data-access surface shared by core.Tx and primary-backup's
// baseline.Tx.
type Execer interface {
	Exec(ctx context.Context, db id.NodeID, op msg.Op) (msg.OpResult, error)
	DBs() []id.NodeID
}

// Router is the optional key-routing surface: core.Tx implements it over the
// deployment's placement map. Logics written against HomeOf work unchanged
// on primary-backup, whose Tx routes everything to the first database.
type Router interface {
	Home(key string) id.NodeID
}

// HomeOf returns the database server owning key: the placement-routed home
// when x routes (core.Tx), the first database otherwise (primary-backup's
// baseline.Tx).
func HomeOf(x Execer, key string) id.NodeID {
	if r, ok := x.(Router); ok {
		return r.Home(key)
	}
	return x.DBs()[0]
}

// --- bank workload (the paper's Figure-8 measurement) -----------------------

// BankRequest encodes a deposit/withdrawal of amount against account.
type BankRequest struct {
	Account string
	Amount  int64
}

// The bank wire format is a hand-rolled varint encoding rather than JSON:
// the bank transaction is the measured request of every throughput
// experiment, and reflection-based marshalling of the request and result was
// a visible slice of the per-commit CPU on the batched hot path.

// EncodeBank marshals a bank request.
func EncodeBank(r BankRequest) []byte {
	return encodeStrInt(r.Account, r.Amount)
}

// DecodeBank unmarshals a bank request.
func DecodeBank(b []byte) (BankRequest, error) {
	s, v, err := decodeStrInt(b)
	if err != nil {
		return BankRequest{}, fmt.Errorf("workload: bad bank request: %w", err)
	}
	return BankRequest{Account: s, Amount: v}, nil
}

// BankResult is the reply: the account's new balance.
type BankResult struct {
	Account string
	Balance int64
}

// EncodeBankResult marshals a bank result.
func EncodeBankResult(r BankResult) []byte {
	return encodeStrInt(r.Account, r.Balance)
}

// DecodeBankResult unmarshals a bank result.
func DecodeBankResult(b []byte) (BankResult, error) {
	s, v, err := decodeStrInt(b)
	if err != nil {
		return BankResult{}, fmt.Errorf("workload: bad bank result: %w", err)
	}
	return BankResult{Account: s, Balance: v}, nil
}

func encodeStrInt(s string, v int64) []byte {
	buf := make([]byte, 0, binary.MaxVarintLen64+len(s)+binary.MaxVarintLen64)
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	buf = append(buf, s...)
	buf = binary.AppendVarint(buf, v)
	return buf
}

func decodeStrInt(b []byte) (string, int64, error) {
	n, k := binary.Uvarint(b)
	if k <= 0 || n > uint64(len(b)-k) {
		return "", 0, fmt.Errorf("bad string length")
	}
	s := string(b[k : k+int(n)])
	rest := b[k+int(n):]
	v, k2 := binary.Varint(rest)
	if k2 <= 0 || k2 != len(rest) {
		return "", 0, fmt.Errorf("bad integer")
	}
	return s, v, nil
}

// BankSeed returns the initial database content for the bank workload.
func BankSeed(accounts map[string]int64) []kv.Write {
	ws := make([]kv.Write, 0, len(accounts))
	for acct, bal := range accounts {
		ws = append(ws, kv.Write{Key: "acct/" + acct, Val: kv.EncodeInt(bal)})
	}
	return ws
}

// Bank runs the paper's measured transaction: "the application server
// executes some SQL statements to update a bank account on a single
// database". The account's key routes the whole transaction to its home
// shard (the first database on unsharded/baseline deployments), so a bank
// request is always a single-shard commit. sqlWork is the simulated
// data-manipulation time (the Figure-8 "SQL" row); zero skips the simulated
// work.
func Bank(ctx context.Context, x Execer, req []byte, sqlWork time.Duration) ([]byte, error) {
	r, err := DecodeBank(req)
	if err != nil {
		return nil, err
	}
	db := HomeOf(x, "acct/"+r.Account)
	if sqlWork > 0 {
		if _, err := x.Exec(ctx, db, msg.Op{Code: msg.OpSleep, Delta: int64(sqlWork)}); err != nil {
			return nil, err
		}
	}
	rep, err := x.Exec(ctx, db, msg.Op{Code: msg.OpAdd, Key: "acct/" + r.Account, Delta: r.Amount})
	if err != nil {
		return nil, err
	}
	if !rep.OK {
		return nil, fmt.Errorf("workload: update failed: %s", rep.Err)
	}
	// Overdrafts are refused by the database (vote no) rather than by the
	// logic: the paper's model of user-level aborts.
	if r.Amount < 0 {
		if _, err := x.Exec(ctx, db, msg.Op{Code: msg.OpCheckGE, Key: "acct/" + r.Account, Delta: 0}); err != nil {
			return nil, err
		}
	}
	return EncodeBankResult(BankResult{Account: r.Account, Balance: rep.Num}), nil
}
