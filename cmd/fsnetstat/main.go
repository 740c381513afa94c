// Command fsnetstat demonstrates the §3.4 compatibility argument:
// system tools that read /proc (netstat, lsof) keep working under
// Fastsocket-aware VFS because the socket fast path retains the inode
// state they need.
//
// It boots a Fastsocket machine running the web-server benchmark,
// lets traffic flow for a few simulated milliseconds, freezes the
// simulation, and prints the /proc/net/tcp view plus a per-state
// summary — sockets in every state, with valid inode numbers, even
// though dentry/inode initialization was skipped on the fast path.
package main

import (
	"flag"
	"fmt"
	"os"

	"fastsocket/internal/app"
	"fastsocket/internal/fault"
	"fastsocket/internal/kernel"
	"fastsocket/internal/lock"
	"fastsocket/internal/netproto"
	"fastsocket/internal/shard"
	"fastsocket/internal/sim"
	"fastsocket/internal/stats"
	"fastsocket/internal/tcp"
	"fastsocket/internal/trace"
)

func main() {
	var (
		cores     = flag.Int("cores", 4, "CPU cores of the simulated machine")
		modeStr   = flag.String("mode", "fastsocket", "kernel: base2632 | linux313 | fastsocket")
		runMS     = flag.Int("run", 5, "simulated milliseconds of traffic before the snapshot")
		pcapPath  = flag.String("pcap", "", "also dump the packet trace to this file (tcpdump/wireshark readable)")
		faultSpec = flag.String("faults", "", "fault plan, e.g. loss=0.01,ring=256,allocfail=0.001 (exercises the SNMP counters)")
		lockgraph = flag.Bool("lockgraph", false, "run with lockdep enabled and print the observed lock-order graph as JSON")
		fsmgraph  = flag.Bool("fsmgraph", false, "print the observed TCP state-transition matrix (sorted edges with counts) as JSON")
		offloads  = flag.Bool("offloads", false, "enable NIC offloads (TSO+GRO+IRQ coalescing) so the Dev counters are live")
	)
	flag.Parse()

	var mode kernel.Mode
	var feat kernel.Features
	switch *modeStr {
	case "base2632":
		mode = kernel.Base2632
	case "linux313":
		mode = kernel.Linux313
	case "fastsocket":
		mode = kernel.Fastsocket
		feat = kernel.FullFastsocket()
	default:
		fmt.Fprintf(os.Stderr, "fsnetstat: unknown mode %q\n", *modeStr)
		os.Exit(2)
	}

	cfg := kernel.Config{Cores: *cores, Mode: mode, Feat: feat}
	if *offloads {
		cfg.TSO, cfg.GRO, cfg.Coalesce = true, true, true
		// Generous ring for the bulk workload below: this client has
		// no retransmit machinery, so burst tail-drops must not occur.
		cfg.RXRingSize = 8192
	}
	if *faultSpec != "" {
		plan, err := fault.ParsePlan(*faultSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fsnetstat: %v\n", err)
			os.Exit(2)
		}
		cfg.Fault = &plan
	}
	if *lockgraph {
		lock.EnableLockdep()
	}
	eng := shard.NewEngine(shard.Config{Lookahead: 20 * sim.Microsecond})
	loop := eng.AddDomain("bed")
	port := app.NewShardedNetwork(eng, 20*sim.Microsecond).Port(0)
	k := kernel.New(loop, cfg)
	port.AttachKernel(k)
	var ring *trace.Ring
	if *pcapPath != "" {
		ring = trace.NewRing(65536, loop.Now, nil)
		k.SetTracer(ring)
	}
	// With offloads on, serve bulk responses so TSO supers and GRO
	// merge trains actually form; the default short-lived workload
	// never sends more than one MSS at a time.
	var wcfg app.WebServerConfig
	lcfg := app.HTTPLoadConfig{
		Targets:     []netproto.Addr{{IP: k.IPs()[0], Port: 80}},
		Concurrency: 8 * *cores,
		Retransmit:  cfg.Fault != nil,
	}
	if *offloads {
		wcfg.ResponseLen = 64 * 1024
		lcfg.RequestLen = 16 * 1024
		lcfg.ResponseLen = 64 * 1024
		lcfg.ChunkBytes = 1460
	}
	srv := app.NewWebServer(k, wcfg)
	srv.Start()
	cli := app.NewHTTPLoad(loop, port, lcfg)
	cli.Start()
	loop.RunUntil(sim.Time(*runMS) * sim.Millisecond)

	if *fsmgraph {
		names := make([]string, tcp.NumStates)
		for i := range names {
			names[i] = tcp.State(i).String()
		}
		os.Stdout.Write(stats.FormatEdges(k.FSMTrace().Edges(names)))
		return
	}

	if *lockgraph {
		if v := lock.LockdepViolations(); len(v) != 0 {
			fmt.Fprintf(os.Stderr, "fsnetstat: lockdep violations:\n")
			for _, s := range v {
				fmt.Fprintln(os.Stderr, "  "+s)
			}
			os.Exit(1)
		}
		os.Stdout.Write(lock.Lockdep().GraphJSON())
		return
	}

	fmt.Printf("fsnetstat — simulated /proc/net/tcp of a %d-core %s kernel (t=%v, %d requests served)\n\n",
		*cores, mode, loop.Now(), srv.Served)
	fmt.Print(k.FormatProcNetTCP())
	fmt.Println("\nSockets by state:")
	for state, n := range k.SocketSummary() {
		fmt.Printf("  %-12s %d\n", state, n)
	}
	fmt.Printf("\nVFS mode: %v — live socket inodes registered: %d\n",
		k.VFS().Mode(), len(k.VFS().ProcEntries()))
	fmt.Printf("\nnetstat -s (SNMP counters):\n%s", k.SNMP().Format())

	if ring != nil {
		f, err := os.Create(*pcapPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fsnetstat: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := ring.WritePcap(f); err != nil {
			fmt.Fprintf(os.Stderr, "fsnetstat: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("packet trace: %d packets written to %s (tcpdump -nn -r %s)\n",
			len(ring.Events()), *pcapPath, *pcapPath)
	}
}
