package tcptransport_test

import (
	"context"
	"fmt"
	"strconv"
	"testing"
	"time"

	"etx/internal/core"
	"etx/internal/deploy"
	"etx/internal/kv"
	"etx/internal/msg"
	"etx/internal/transport/tcptransport"
)

// TestFullProtocolOverTCP runs the complete e-Transaction stack, in its
// paper-exact configuration, over real loopback TCP and a file-backed
// database.
func TestFullProtocolOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP end-to-end test skipped in -short mode")
	}
	logic := core.LogicFunc(func(ctx context.Context, tx *core.Tx, req []byte) ([]byte, error) {
		amount, err := strconv.ParseInt(string(req), 10, 64)
		if err != nil {
			return nil, err
		}
		rep, err := tx.Exec(ctx, tx.DBs()[0], msg.Op{Code: msg.OpAdd, Key: "acct/alice", Delta: amount})
		if err != nil {
			return nil, err
		}
		return []byte(fmt.Sprintf("%d", rep.Num)), nil
	})
	cl, engine := startStack(t, tcptransport.Config{}, journal(t, 0), deploy.Tuning{},
		[]kv.Write{{Key: "acct/alice", Val: kv.EncodeInt(100)}}, logic)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i := 1; i <= 3; i++ {
		res, err := cl.Issue(ctx, []byte("-10"))
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if want := fmt.Sprintf("%d", 100-10*i); string(res) != want {
			t.Fatalf("request %d -> %q, want %q", i, res, want)
		}
	}
	if n, _ := engine.Store().GetInt("acct/alice"); n != 70 {
		t.Fatalf("balance = %d, want exactly three withdrawals", n)
	}
}
