// Command bayou-node hosts one replica of a multi-process live deployment:
// it listens on its own address from the cluster's address list, exchanges
// the replica protocol with its peers over TCP (internal/wire envelopes),
// and serves the controller process (the bayou façade with WithPeers) until
// told to shut down.
//
// A three-node cluster on one machine:
//
//	bayou-node -id 0 -addrs 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 &
//	bayou-node -id 1 -addrs 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 &
//	bayou-node -id 2 -addrs 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 &
//
// Start order does not matter: outbound links re-dial with backoff, and
// each node bootstraps by resyncing off its peers — a node joining a
// deployment that already has history catches up by checkpoint state
// transfer plus commit replay, not by replaying the whole log.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"bayou/internal/core"
	"bayou/internal/livenet"
	"bayou/internal/wire"
)

func main() {
	id := flag.Int("id", -1, "this replica's id (index into -addrs)")
	addrs := flag.String("addrs", "", "comma-separated listen addresses of every replica, in id order")
	variant := flag.String("variant", "modified", "protocol variant: original | modified")
	ckptEvery := flag.Int("checkpoint-every", 0, "checkpoint once this many commits accumulate past the last one (0: manual only)")
	lease := flag.Bool("lease", false, "serve strong read-only operations locally on the sequencer (leader lease)")
	dataDir := flag.String("data-dir", "", "directory for the durable log; empty runs the node volatile (recovery by peer rescue only)")
	seed := flag.Int64("seed", 0, "seed for this node's randomized behavior (dial jitter, fault injection)")
	chaos := flag.String("chaos", "", "wire fault-injection spec, e.g. drop=0.02,dup=0.02,reorder=0.02,flip=0.01,trunc=0.005,delay=0.05,delaymax=5ms (testing only)")
	flag.Parse()

	list := strings.Split(*addrs, ",")
	if *addrs == "" || len(list) < 1 {
		fmt.Fprintln(os.Stderr, "bayou-node: -addrs must list every replica's address")
		os.Exit(2)
	}
	var v core.Variant
	switch *variant {
	case "original":
		v = core.Original
	case "modified", "":
		v = core.NoCircularCausality
	default:
		fmt.Fprintf(os.Stderr, "bayou-node: unknown variant %q\n", *variant)
		os.Exit(2)
	}
	faults, err := wire.ParseFaults(*chaos, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bayou-node: -chaos: %v\n", err)
		os.Exit(2)
	}
	if err := livenet.ServeNode(livenet.NodeConfig{
		ID:              *id,
		Variant:         v,
		CheckpointEvery: *ckptEvery,
		LeaderLease:     *lease,
		Addrs:           list,
		DataDir:         *dataDir,
		Seed:            *seed,
		Chaos:           faults,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "bayou-node: %v\n", err)
		os.Exit(1)
	}
}
