// Command etxappserver runs one replicated application server of the
// e-Transaction protocol over TCP, for multi-process deployments.
//
// Example three-server deployment (one database, one client):
//
//	etxdbserver  -id 1 -listen :7201 -appservers "1=:7101,2=:7102,3=:7103" -data db1.journal &
//	etxappserver -id 1 -listen :7101 -appservers "1=:7101,2=:7102,3=:7103" -dbservers "1=:7201" -clients "1=:7301" &
//	etxappserver -id 2 -listen :7102 -appservers "1=:7101,2=:7102,3=:7103" -dbservers "1=:7201" -clients "1=:7301" &
//	etxappserver -id 3 -listen :7103 -appservers "1=:7101,2=:7102,3=:7103" -dbservers "1=:7201" -clients "1=:7301" &
//	etxclient    -listen :7301 -appservers "1=:7101,2=:7102,3=:7103" -account alice -amount -10
//
// The built-in business logic is the paper's bank workload: the request
// "account:amount" adds amount to acct/<account> on database 1 and refuses
// overdrafts at commitment time.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"etx/internal/core"
	"etx/internal/deploy"
	"etx/internal/id"
	"etx/internal/placement"
	"etx/internal/rchan"
	"etx/internal/transport/tcptransport"
)

func main() {
	if err := run(); err != nil {
		log.Fatal("etxappserver: ", err)
	}
}

// bankLogic parses "account:amount" and updates the account on its home
// shard: the keyed Tx API routes through placement, so the whole
// transaction stays on one database server and commits through the
// one-shard fast path.
func bankLogic() core.Logic {
	return core.LogicFunc(func(ctx context.Context, tx *core.Tx, req []byte) ([]byte, error) {
		account, amountStr, ok := strings.Cut(string(req), ":")
		if !ok {
			return nil, fmt.Errorf("bad request %q (want account:amount)", req)
		}
		amount, err := strconv.ParseInt(amountStr, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad amount: %w", err)
		}
		key := "acct/" + account
		balance, err := tx.Add(ctx, key, amount)
		if err != nil {
			return nil, err
		}
		if amount < 0 {
			if err := tx.CheckAtLeast(ctx, key, 0); err != nil {
				return nil, err
			}
		}
		return []byte(fmt.Sprintf("%s=%d", account, balance)), nil
	})
}

func run() error {
	idx := flag.Int("id", 1, "application server index (1-based)")
	listen := flag.String("listen", ":7101", "listen address")
	appSpec := flag.String("appservers", "", "address book, e.g. 1=:7101,2=:7102,3=:7103")
	dbSpec := flag.String("dbservers", "", "address book, e.g. 1=:7201")
	clSpec := flag.String("clients", "", "client address book, e.g. 1=:7301,2=:7302")
	writeTimeout := flag.Duration("write-timeout", 0, "transport write deadline: a peer that stops reading trips it and the connection is dropped (0 = default 5s)")
	shards := flag.Int("shards", 0, "key-shard the database tier over the first N -dbservers (0 = all of them)")
	placeSpec := flag.String("placement", "hash", "partitioner: hash | range:b1,b2,... (every app server must agree)")
	tuning := deploy.ServerDefaults()
	tuning.RegisterFlags(flag.CommandLine)
	flag.Parse()
	replicas := tuning.Resolve().ReplicaFactor

	apps, err := tcptransport.ParsePeers(id.RoleAppServer, *appSpec)
	if err != nil {
		return err
	}
	dbs, err := tcptransport.ParsePeers(id.RoleDBServer, *dbSpec)
	if err != nil {
		return err
	}
	clients, err := tcptransport.ParsePeers(id.RoleClient, *clSpec)
	if err != nil {
		return err
	}
	if len(apps) == 0 || len(dbs) == 0 {
		return fmt.Errorf("need -appservers and -dbservers address books")
	}
	dbList := tcptransport.SortedPeers(dbs)
	if *shards <= 0 {
		// On a replicated tier the book lists every group member, so the
		// natural default is one shard per replica-factor-sized slice.
		if len(dbList)%replicas != 0 {
			return fmt.Errorf("-dbservers lists %d servers, not a multiple of -replicas %d; pass -shards explicitly", len(dbList), replicas)
		}
		*shards = len(dbList) / replicas
	}
	if *shards > len(dbList) {
		return fmt.Errorf("-shards %d exceeds the %d servers in -dbservers", *shards, len(dbList))
	}
	policy, err := placement.Parse(*placeSpec, *shards)
	if err != nil {
		return err
	}
	pmap, err := placement.NewMap(policy, dbList[:*shards])
	if err != nil {
		return err
	}
	// Shard s is served by the s-th entry of the sorted -dbservers book,
	// while etxdbserver's per-shard seeding assumes server -id K owns shard
	// K-1. Both hold only when the book's ids run 1..N; warn loudly when
	// they do not, because seeded keys would land on the wrong shard.
	for s, db := range dbList[:*shards] {
		if db.Index != s+1 {
			log.Printf("warning: shard %d is served by %s; etxdbserver -shards seeding assumes ids 1..%d, so seeded keys may sit on the wrong server", s, db, *shards)
		}
	}
	// Replicated data tier: the epoch-stamped view starts at the boot
	// primaries (the placement map's targets) and advances as promoted
	// backups announce NewPrimary. Routing stays keyed to boot identities;
	// the view only translates the delivery target, so the paper's
	// participant lists never change shape.
	var view *placement.View
	if replicas > 1 {
		groups := deploy.Groups(*shards, replicas)
		for s, group := range groups {
			for k, member := range group {
				if _, ok := dbs[member]; !ok {
					return fmt.Errorf("-replicas %d needs dbserver id %d (member %d of shard %d) in -dbservers", replicas, member.Index, k, s)
				}
			}
		}
		view, err = placement.NewView(groups)
		if err != nil {
			return err
		}
	}
	if len(clients) == 0 {
		// Results to unknown peers are silently dropped (fair loss), so an
		// empty book means clients hang until their deadlines. Warn loudly.
		log.Printf("warning: no -clients address book; results cannot be delivered to any client")
	}

	self := id.AppServer(*idx)
	ep, err := tcptransport.Listen(tcptransport.Config{
		Self:   self,
		Listen: *listen,
		// Results go back to the addresses in the -clients book; peers and
		// databases come from theirs.
		Peers:        tcptransport.Merge(apps, dbs, clients),
		WriteTimeout: *writeTimeout,
	})
	if err != nil {
		return err
	}
	defer ep.Close()

	srv, err := deploy.StartAppNode(core.AppServerConfig{
		Self:        self,
		AppServers:  tcptransport.SortedPeers(apps),
		DataServers: dbList,
		Placement:   pmap,
		View:        view,
		Endpoint:    rchan.Wrap(ep, 100*time.Millisecond),
		Logic:       bankLogic(),
	}, tuning)
	if err != nil {
		return err
	}
	defer srv.Stop()
	log.Printf("appserver-%d listening on %s (%d app servers, %d db servers, %s)",
		*idx, ep.Addr(), len(apps), len(dbs), pmap)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("appserver-%d shutting down", *idx)
	return nil
}
