// Command etxdbserver runs one database server (the XA engine with
// write-ahead logging) over TCP. Its stable storage lives in the -data
// journal file, so killing and restarting the process exercises real crash
// recovery: in-doubt branches are restored with their locks and a [Ready]
// notification announces the new incarnation to the application servers.
//
// With a -group address book the server is one member of a replica group:
// the primary (the lowest id, or any member started without -backup)
// streams every appended log record to the other members, and a member
// started with -backup applies the stream to its own journal and promotes
// itself — replaying the log, re-seeding in-doubt branches, announcing the
// new epoch — when the primary stops heartbeating. The application servers
// must run with a matching -replicas so their epoch-stamped view routes
// around the deposed primary.
//
// SIGINT/SIGTERM trigger a graceful shutdown: the server drains its
// mailbox to a quiet point, stops, forces a final stable-storage Sync and
// closes the transport, so soak scripts can cycle servers cleanly.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"etx/internal/deploy"
	"etx/internal/id"
	"etx/internal/kv"
	"etx/internal/placement"
	"etx/internal/rchan"
	"etx/internal/repl"
	"etx/internal/stablestore"
	"etx/internal/transport"
	"etx/internal/transport/tcptransport"
)

func main() {
	if err := run(); err != nil {
		log.Fatal("etxdbserver: ", err)
	}
}

func run() error {
	idx := flag.Int("id", 1, "database server index (1-based)")
	listen := flag.String("listen", ":7201", "listen address")
	appSpec := flag.String("appservers", "", "address book, e.g. 1=:7101,2=:7102,3=:7103")
	dataPath := flag.String("data", "etxdb.journal", "stable-storage journal file")
	fsync := flag.Duration("fsync", 0, "simulated forced-write latency on top of the real fsync (reproduces the bench commit bottleneck)")
	writeTimeout := flag.Duration("write-timeout", 0, "transport write deadline: a peer that stops reading trips it and the connection is dropped (0 = default 5s)")
	seedAcct := flag.String("seed", "alice=100,bob=100", "initial accounts (name=balance,...)")
	shards := flag.Int("shards", 0, "shard count of the deployment: seed only the accounts this server owns (server -id K owns shard K-1, so ids must run 1..shards); 0 seeds everything")
	placeSpec := flag.String("placement", "hash", "partitioner: hash | range:b1,b2,... (must match the app servers' -placement)")
	groupSpec := flag.String("group", "", "replica-group address book of this server's shard, itself included, e.g. 1=:7201,4=:7204; ascending id is promotion order and the lowest id is the boot primary")
	backup := flag.Bool("backup", false, "run as a backup applier of -group: apply the primary's record stream to -data and promote on suspicion instead of serving transactions")
	drainWait := flag.Duration("drain", 5*time.Second, "graceful-shutdown bound: how long SIGINT/SIGTERM waits for the mailbox to quiesce before stopping")
	tuning := deploy.ServerDefaults()
	tuning.RegisterFlags(flag.CommandLine)
	flag.Parse()

	apps, err := tcptransport.ParsePeers(id.RoleAppServer, *appSpec)
	if err != nil {
		return err
	}
	if len(apps) == 0 {
		return fmt.Errorf("need an -appservers address book")
	}
	groupBook, err := tcptransport.ParsePeers(id.RoleDBServer, *groupSpec)
	if err != nil {
		return err
	}
	group := tcptransport.SortedPeers(groupBook)
	self := id.DBServer(*idx)
	if _, ok := groupBook[self]; len(group) > 0 && !ok {
		return fmt.Errorf("-group %q does not contain this server (-id %d)", *groupSpec, *idx)
	}
	if *backup && len(group) < 2 {
		return fmt.Errorf("-backup needs a -group of at least two members")
	}
	if tuning.ReplicaFactor > 1 && len(group) != tuning.ReplicaFactor {
		return fmt.Errorf("-replicas %d needs a -group of that many members, got %d", tuning.ReplicaFactor, len(group))
	}
	seed, err := parseSeed(*seedAcct)
	if err != nil {
		return err
	}
	if *shards > 0 && !*backup {
		// Per-shard seeding: this server holds only the keys whose home
		// shard it is (a backup seeds nothing; its image arrives on the
		// stream). The shard of server -id N is N-1, matching the app
		// servers' placement over the sorted -dbservers book — the
		// partitioner must therefore be the same on both tiers.
		policy, err := placement.Parse(*placeSpec, *shards)
		if err != nil {
			return err
		}
		if *idx > *shards {
			log.Printf("warning: -id %d owns no shard of a %d-shard tier; seeding nothing", *idx, *shards)
		}
		own := seed[:0]
		for _, w := range seed {
			if policy.ShardFor(w.Key) == *idx-1 {
				own = append(own, w)
			}
		}
		seed = own
	}

	// Recovery is real here: if the journal already has content, this start
	// is a recovery and the engine announces Ready.
	recovery := false
	if st, err := os.Stat(*dataPath); err == nil && st.Size() > 0 {
		recovery = true
	}
	store, err := stablestore.OpenFile(*dataPath, 0)
	if err != nil {
		return err
	}
	defer store.CloseFile()
	// The simulated fsync cost is a plain store setting, so a TCP deployment
	// can reproduce the bench bottleneck on real sockets.
	store.SetForceLatency(*fsync)

	ep, err := tcptransport.Listen(tcptransport.Config{
		Self:         self,
		Listen:       *listen,
		Peers:        tcptransport.Merge(apps, groupBook),
		WriteTimeout: *writeTimeout,
	})
	if err != nil {
		return err
	}
	defer ep.Close()
	endpoint := rchan.Wrap(ep, 100*time.Millisecond)
	appList := tcptransport.SortedPeers(apps)

	// serving remembers the data node for shutdown: the boot primary's, or
	// the one a promotion starts.
	var nodeMu sync.Mutex
	var node *deploy.DataNode
	serving := func(recovery bool) func(*deploy.DataNode) {
		return func(n *deploy.DataNode) {
			nodeMu.Lock()
			node = n
			nodeMu.Unlock()
			log.Printf("dbserver-%d serving on %s (incarnation %d, recovery=%v, %d in-doubt branches, %d group peers)",
				*idx, ep.Addr(), n.Engine.Incarnation(), recovery, len(n.Engine.InDoubt()), len(group))
		}
	}

	var applier *repl.Backup
	if *backup {
		// Backup role: apply the primary's stream to this journal, monitor
		// the group with heartbeats, take the shard over when the current
		// primary is suspected. No engine runs until promotion; the seed
		// arrives as the first streamed record.
		applier = deploy.StartBackup(deploy.BackupConfig{
			BackupConfig: repl.BackupConfig{
				Self:       self,
				Shard:      group[0].Index - 1,
				Group:      group,
				AppServers: appList,
				Endpoint:   endpoint,
				Store:      store,
				OnPromote: func(lat time.Duration) {
					log.Printf("dbserver-%d promoted to shard primary (drain-to-takeover %v)", *idx, lat)
				},
			},
			Tuning:  tuning,
			Publish: serving(true),
		})
		log.Printf("dbserver-%d backing up shard %d on %s (group %v)", *idx, group[0].Index-1, ep.Addr(), group)
	} else {
		_, err := deploy.StartDataNode(deploy.DataNodeConfig{
			Self:       self,
			AppServers: appList,
			Group:      group,
			Endpoint:   endpoint,
			Store:      store,
			Tuning:     tuning,
			Recovery:   recovery,
			Seed:       seed,
			Publish:    serving(recovery),
		})
		if err != nil {
			return err
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig

	// Graceful shutdown: quiesce the mailbox so in-flight Prepare/Decide
	// rounds finish, stop the serve loop, force a last Sync so everything
	// journaled is durable, then close the transport.
	log.Printf("dbserver-%d shutting down: draining mailbox", *idx)
	if applier != nil {
		applier.Stop()
	}
	nodeMu.Lock()
	n := node
	nodeMu.Unlock()
	if n != nil {
		n.Server.Drain(200*time.Millisecond, *drainWait)
		n.Stop()
	}
	store.Sync()
	if err := ep.Close(); err != nil && err != transport.ErrClosed {
		log.Printf("dbserver-%d transport close: %v", *idx, err)
	}
	log.Printf("dbserver-%d shutdown complete (journal synced)", *idx)
	return nil
}

// parseSeed parses "name=balance,..." into account rows; a bare name seeds a
// zero balance.
func parseSeed(spec string) ([]kv.Write, error) {
	var out []kv.Write
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, balance, hasBalance := strings.Cut(part, "=")
		if name == "" {
			return nil, fmt.Errorf("malformed seed %q: no account name", part)
		}
		var bal int64
		if hasBalance {
			var err error
			if bal, err = strconv.ParseInt(balance, 10, 64); err != nil {
				return nil, fmt.Errorf("malformed seed %q: %w", part, err)
			}
		}
		out = append(out, kv.Write{Key: "acct/" + name, Val: kv.EncodeInt(bal)})
	}
	return out, nil
}
