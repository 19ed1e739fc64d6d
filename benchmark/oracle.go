package main

import (
	"fmt"
	"sort"
)

// checkExactlyOnce compares what the clients were told with what the
// database servers hold. Every acknowledged request must have taken effect
// exactly once; a failed request (error or deadline) may or may not have.
//
//   - every acknowledged reply parses to the balances the logic returns;
//   - each account's final balance is its seed plus the acknowledged deltas,
//     give or take the failed requests on it;
//   - the grand total is the seeds plus the deposits: transfers conserve it
//     whether they failed or not;
//   - a read returns a balance the account held at some time;
//   - on an account that only deposits touch, every deposit returns a
//     different balance: a request applied twice would skip one, and with
//     the final balance fixed some other deposit would have to repeat one.
func checkExactlyOnce(samples []sample, live []int64) error {
	lo := make([]int64, numAccounts)
	hi := make([]int64, numAccounts)
	for i := range lo {
		lo[i], hi[i] = seedBalance, seedBalance
	}
	var deposits, maybeDeposits int64
	depositReplies := make(map[int][]int64)
	transfers := false
	for i, s := range samples {
		if !s.failed && !s.replyOK {
			return fmt.Errorf("request %d (%s): reply does not parse", i, s.req.encode())
		}
		switch s.req.kind {
		case kindDeposit:
			if s.failed {
				hi[s.req.a]++
				maybeDeposits++
			} else {
				lo[s.req.a]++
				hi[s.req.a]++
				deposits++
				depositReplies[s.req.a] = append(depositReplies[s.req.a], s.bal[0])
			}
		case kindTransfer:
			transfers = true
			if !s.failed {
				hi[s.req.a]--
				lo[s.req.b]++
			}
			lo[s.req.a]--
			hi[s.req.b]++
		}
	}

	var total int64
	for a, bal := range live {
		total += bal
		if bal < lo[a] || bal > hi[a] {
			return fmt.Errorf("account %d holds %d, want %d to %d: an acknowledged request was lost or applied twice",
				a, bal-seedBalance, lo[a]-seedBalance, hi[a]-seedBalance)
		}
	}
	if want := numAccounts*seedBalance + deposits; total < want || total > want+maybeDeposits {
		return fmt.Errorf("grand total is off by %d: money was created or destroyed", total-want)
	}
	for i, s := range samples {
		if s.req.kind == kindRead && !s.failed && (s.bal[0] < seedBalance || s.bal[0] > live[s.req.a]) {
			return fmt.Errorf("request %d: read of account %d returned %d, which it never held", i, s.req.a, s.bal[0]-seedBalance)
		}
	}
	if !transfers {
		for a, replies := range depositReplies {
			sort.Slice(replies, func(i, j int) bool { return replies[i] < replies[j] })
			for i, bal := range replies {
				if bal <= seedBalance || bal > live[a] || (i > 0 && bal == replies[i-1]) {
					return fmt.Errorf("account %d: a deposit returned balance %d, out of range or returned twice", a, bal-seedBalance)
				}
			}
		}
	}
	return nil
}

// checkDurable requires the balances recovered from the journals alone to be
// the ones the live engines held.
func checkDurable(live, recovered []int64) error {
	for a := range live {
		if live[a] != recovered[a] {
			return fmt.Errorf("account %d: journal replay recovered %d, the live engine held %d",
				a, recovered[a]-seedBalance, live[a]-seedBalance)
		}
	}
	return nil
}
