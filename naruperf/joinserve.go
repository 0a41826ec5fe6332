package main

// serve-join: the join server under test. `naru serve` has no join path, so
// the benchmark serves a join model the way an embedder would: a
// server.Server holding one JoinTenant, in a process of its own, on the same
// HTTP routes and shutdown sequence as `naru serve`.

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/neurocard"
	"repro/internal/server"
)

// joinTenantName is the route name: /v1/join/estimate.
const joinTenantName = "join"

func serveJoin(args []string) error {
	fs := flag.NewFlagSet("serve-join", flag.ContinueOnError)
	dir := fs.String("dir", "", "directory holding the join's three CSVs")
	model := fs.String("model", "", "join model written by naru train -join")
	addr := fs.String("addr", "127.0.0.1:0", "listen address")
	seed := fs.Int64("seed", 1, "estimator and refresh seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sch, err := joinSchema(*dir)
	if err != nil {
		return err
	}
	f, err := os.Open(*model)
	if err != nil {
		return err
	}
	est, err := neurocard.Load(f, sch, joinConfig(*seed))
	f.Close()
	if err != nil {
		return err
	}
	logf := func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) }
	srv := server.New(server.Options{Logf: logf})
	if err := srv.AddJoin(server.NewJoinTenant(joinTenantName, est)); err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv.Start(ctx)
	defer srv.Close()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hsrv := &http.Server{Handler: srv.Handler()}
	fmt.Printf("serving on http://%s/v1/%s/estimate\n", ln.Addr(), joinTenantName)
	errc := make(chan error, 1)
	go func() { errc <- hsrv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	srv.Drain()
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return hsrv.Shutdown(shutCtx)
}

// joinConfig is the join estimator's configuration, in the served process
// and the traced run alike. It repeats the training flags, so a refresh
// retrains as `naru train -join` did. Its refresh budget is growth of
// joinRefreshFraction, which each ingest-tail append crosses.
func joinConfig(seed int64) neurocard.Config {
	hidden, _ := parseInts(joinHidden)
	return neurocard.Config{Hidden: hidden, Samples: samples, Seed: seed, Epochs: joinEpochs,
		BatchSize: joinBatch, Workers: conns, RefreshFraction: joinRefreshFraction}
}

// joinSchema loads the three tables genJoin wrote into dir, joined as
// joinSpec describes: customers.cid = orders.cid and orders.oid = items.oid.
func joinSchema(dir string) (*neurocard.Schema, error) {
	sch := &neurocard.Schema{}
	for _, name := range []string{"customers", "orders", "items"} {
		t, err := loadCSV(filepath.Join(dir, name+".csv"), name)
		if err != nil {
			return nil, err
		}
		sch.Tables = append(sch.Tables, t)
	}
	// Column indices follow the CSV headers written by joinData.write.
	sch.Edges = []neurocard.Edge{
		{Parent: 0, Child: 1, ParentCol: 0, ChildCol: 1},
		{Parent: 1, Child: 2, ParentCol: 0, ChildCol: 0},
	}
	return sch, sch.Validate()
}

// parseInts reads a comma-separated list of widths ("" gives nil).
func parseInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad width %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}
