// Failover: the headline behaviour of the paper — the primary application
// server crashes in the middle of a request, a backup's cleaning thread
// takes over through the write-once registers, and the client still delivers
// the result exactly once, without resubmitting anything.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"etx"
)

func main() {
	c, err := etx.New(etx.Config{
		AppServers:    3,
		Seed:          map[string]int64{"acct/shop": 0, "acct/card": 500},
		Tuning:        etx.Tuning{SuspectTimeout: 50 * time.Millisecond},
		ClientBackoff: 60 * time.Millisecond,
		Logic: func(ctx context.Context, tx *etx.Tx, req []byte) ([]byte, error) {
			// A deliberately slow payment, so the crash lands mid-flight.
			if err := tx.SimulateWork(ctx, 0, 100*time.Millisecond); err != nil {
				return nil, err
			}
			if _, err := tx.Add(ctx, 0, "acct/card", -25); err != nil {
				return nil, err
			}
			if err := tx.CheckAtLeast(ctx, 0, "acct/card", 0); err != nil {
				return nil, err
			}
			total, err := tx.Add(ctx, 0, "acct/shop", 25)
			if err != nil {
				return nil, err
			}
			return []byte(fmt.Sprintf("paid 25, shop total %d", total)), nil
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	done := make(chan struct{})
	var result []byte
	var issueErr error
	go func() {
		defer close(done)
		result, issueErr = c.Issue(ctx, 1, []byte("pay"))
	}()

	// Let the primary get into the computation, then kill it.
	time.Sleep(30 * time.Millisecond)
	fmt.Println("crashing the primary application server mid-request...")
	c.CrashAppServer(1)

	<-done
	if issueErr != nil {
		log.Fatal(issueErr)
	}
	fmt.Printf("client still delivered: %s\n", result)

	card, _ := c.ReadInt(1, "acct/card")
	shop, _ := c.ReadInt(1, "acct/shop")
	fmt.Printf("card=%d shop=%d (charged exactly once despite the crash)\n", card, shop)
	if card != 475 || shop != 25 {
		log.Fatalf("exactly-once violated: card=%d shop=%d", card, shop)
	}
	if err := c.CheckInvariants(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("all e-Transaction properties hold")
}
