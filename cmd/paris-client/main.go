// Command paris-client is an interactive shell against a TCP PaRiS
// deployment (see cmd/paris-server). It speaks the full transactional
// protocol:
//
//	paris-client -dcs 3 -partitions 3 -rf 2 -dc 0 -coordinator 0 -peers peers.txt
//
//	> begin
//	> put user:alice hello
//	> get user:alice
//	> commit
//	> quit
//
// Single-shot "get" and "put" outside a transaction run as one-shot
// transactions.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/paris-kv/paris/internal/client"
	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/transport"
)

func main() {
	var (
		dcs        = flag.Int("dcs", 3, "number of data centers (M)")
		partitions = flag.Int("partitions", 3, "number of partitions (N)")
		rf         = flag.Int("rf", 2, "replication factor (R)")
		dc         = flag.Int("dc", 0, "client's local data center")
		coord      = flag.Int("coordinator", 0, "coordinator partition id (must be in -dc)")
		clientIdx  = flag.Int("id", 0, "client index (unique per DC)")
		listen     = flag.String("listen", "127.0.0.1:0", "local listen address for responses")
		peersFile  = flag.String("peers", "peers.txt", "peer address file")
		mode       = flag.String("mode", "paris", `visibility protocol: "paris" or "bpr"`)
	)
	flag.Parse()

	topo, err := topology.New(*dcs, *partitions, *rf)
	if err != nil {
		fatalf("%v", err)
	}
	if !topo.IsReplicatedAt(topology.PartitionID(*coord), topology.DCID(*dc)) {
		fatalf("DC %d does not replicate partition %d", *dc, *coord)
	}
	book, err := transport.LoadAddressBook(*peersFile)
	if err != nil {
		fatalf("loading peers: %v", err)
	}

	cmode := client.ModeNonBlocking
	if *mode == "bpr" {
		cmode = client.ModeBlocking
	}
	id := topology.ClientID(topology.DCID(*dc), int32(*clientIdx))
	cl, err := client.New(client.Config{
		ID:          id,
		Coordinator: topology.ServerID(topology.DCID(*dc), topology.PartitionID(*coord)),
		Mode:        cmode,
		CallTimeout: 10 * time.Second,
	})
	if err != nil {
		fatalf("%v", err)
	}
	node, err := transport.ListenTCP(id, *listen, book, cl.Peer())
	if err != nil {
		fatalf("%v", err)
	}
	defer func() { _ = node.Close() }()
	cl.Peer().Attach(node)

	fmt.Printf("paris-client %v → coordinator s%d.%d (type 'help')\n", id, *dc, *coord)
	repl(cl)
}

func repl(cl *client.Client) {
	ctx := context.Background()
	scanner := bufio.NewScanner(os.Stdin)
	inTx, announced := false, false
	// announce prints an interactive transaction's id and snapshot once, after
	// the operation that started it at the coordinator has returned them;
	// begin itself is local and has neither.
	announce := func() {
		if inTx && !announced && cl.TxID() != 0 {
			fmt.Printf("tx %v snapshot=%v\n", cl.TxID(), cl.Snapshot())
			announced = true
		}
	}
	fmt.Print("> ")
	for scanner.Scan() {
		fields := strings.Fields(scanner.Text())
		if len(fields) == 0 {
			fmt.Print("> ")
			continue
		}
		switch cmd := fields[0]; cmd {
		case "help":
			fmt.Println("commands: begin | get k [k2 ...] | put k v | commit | abandon | status | quit")
		case "quit", "exit":
			if inTx {
				cl.Abandon()
			}
			return
		case "begin":
			if err := cl.Start(ctx); err != nil {
				fmt.Println("error:", err)
			} else {
				inTx, announced = true, false
				fmt.Println("transaction open (its first get or commit assigns the id and snapshot)")
			}
		case "get":
			if len(fields) < 2 {
				fmt.Println("usage: get k [k2 ...]")
				break
			}
			oneShot := !inTx
			if oneShot {
				if err := cl.Start(ctx); err != nil {
					fmt.Println("error:", err)
					break
				}
			}
			vals, err := cl.Read(ctx, fields[1:]...)
			if err != nil {
				fmt.Println("error:", err)
			} else {
				announce()
				for _, k := range fields[1:] {
					if v, ok := vals[k]; ok {
						fmt.Printf("%s = %q\n", k, v)
					} else {
						fmt.Printf("%s = (not found)\n", k)
					}
				}
			}
			if oneShot {
				if _, err := cl.Commit(ctx); err != nil {
					fmt.Println("error:", err)
				}
			}
		case "put":
			if len(fields) != 3 {
				fmt.Println("usage: put k v")
				break
			}
			oneShot := !inTx
			if oneShot {
				if err := cl.Start(ctx); err != nil {
					fmt.Println("error:", err)
					break
				}
			}
			if err := cl.Write(fields[1], []byte(fields[2])); err != nil {
				fmt.Println("error:", err)
			}
			if oneShot {
				ct, err := cl.Commit(ctx)
				if err != nil {
					fmt.Println("error:", err)
				} else {
					fmt.Printf("committed at %v\n", ct)
				}
			}
		case "commit":
			ct, err := cl.Commit(ctx)
			if err != nil {
				fmt.Println("error:", err)
			} else {
				announce()
				inTx = false
				if ct == 0 {
					fmt.Println("committed (read-only)")
				} else {
					fmt.Printf("committed at %v\n", ct)
				}
			}
		case "abandon":
			cl.Abandon()
			inTx = false
			fmt.Println("abandoned")
		case "status":
			fmt.Printf("ust=%v hwt=%v cache=%d stats=%+v\n",
				cl.UST(), cl.HWT(), cl.CacheSize(), cl.Stats())
		default:
			fmt.Printf("unknown command %q (type 'help')\n", cmd)
		}
		fmt.Print("> ")
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "paris-client: "+format+"\n", args...)
	os.Exit(1)
}
