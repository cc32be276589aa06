// Command isccluster fronts a fleet of iscd replicas: consistent-hash
// routing on the canonical program fingerprint (so each replica's cache
// owns a shard of the keyspace), active health checking, per-replica
// circuit breakers, retry-with-backoff failover along the ring, and
// token-bucket admission control with SLO classes (gold/silver/bronze)
// that shed load by shrinking deadlines before rejecting.
//
// Usage:
//
//	iscd -addr localhost:8081 -name r1 &
//	iscd -addr localhost:8082 -name r2 &
//	iscd -addr localhost:8083 -name r3 &
//	isccluster -addr localhost:9090 \
//	           -replica r1=http://localhost:8081 \
//	           -replica r2=http://localhost:8082 \
//	           -replica r3=http://localhost:8083
//
//	curl -s -X POST localhost:9090/v1/customize \
//	     -d '{"benchmark":"crc","budget":10,"slo":"gold"}'
//
// See docs/ARCHITECTURE.md for the routing, health, and shedding model.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/telemetry"
)

type replicaList []cluster.ReplicaConfig

func (r *replicaList) String() string { return fmt.Sprintf("%d replicas", len(*r)) }

func (r *replicaList) Set(v string) error {
	name, url, ok := strings.Cut(v, "=")
	if !ok || name == "" || url == "" {
		return fmt.Errorf("replica %q is not name=url", v)
	}
	*r = append(*r, cluster.ReplicaConfig{Name: name, URL: url})
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("isccluster: ")
	addr := flag.String("addr", "localhost:9090", "listen address")
	var replicas replicaList
	flag.Var(&replicas, "replica", "iscd replica as name=url (repeatable, at least one)")
	hcInterval := flag.Duration("hc-interval", time.Second, "active health-probe interval")
	hcTimeout := flag.Duration("hc-timeout", 500*time.Millisecond, "health-probe timeout")
	attempts := flag.Int("attempts", 0, "max attempts per request across replicas (0 = replicas+1)")
	breakerThreshold := flag.Int("breaker-threshold", 3, "consecutive failures that open a replica's circuit breaker")
	breakerCooloff := flag.Duration("breaker-cooloff", 2*time.Second, "how long an open breaker waits before a half-open probe")
	goldRate := flag.Float64("gold-rate", 100, "gold admission tokens/second")
	silverRate := flag.Float64("silver-rate", 100, "silver admission tokens/second")
	bronzeRate := flag.Float64("bronze-rate", 100, "bronze admission tokens/second")
	goldBurst := flag.Float64("gold-burst", 0, "gold admission burst depth (0 = 200)")
	silverBurst := flag.Float64("silver-burst", 0, "silver admission burst depth (0 = 200)")
	bronzeBurst := flag.Float64("bronze-burst", 0, "bronze admission burst depth (0 = 200)")
	goldDeadline := flag.Duration("gold-deadline", 30*time.Second, "default deadline for gold requests")
	silverDeadline := flag.Duration("silver-deadline", 10*time.Second, "default deadline for silver requests")
	bronzeDeadline := flag.Duration("bronze-deadline", 3*time.Second, "default deadline for bronze requests")
	trace := flag.String("trace", "", "write a telemetry dump (JSON) to this file on shutdown")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address")
	flag.Parse()

	if len(replicas) == 0 {
		log.Fatal("at least one -replica name=url is required (see -h)")
	}
	if *pprofAddr != "" {
		if err := telemetry.ServePprof(*pprofAddr); err != nil {
			log.Fatalf("pprof: %v", err)
		}
		log.Printf("pprof listening on %s", *pprofAddr)
	}

	tel := telemetry.New("isccluster")
	cfg := cluster.Config{
		Replicas:         replicas,
		HealthInterval:   *hcInterval,
		HealthTimeout:    *hcTimeout,
		MaxAttempts:      *attempts,
		BreakerThreshold: *breakerThreshold,
		BreakerCooloff:   *breakerCooloff,
		Telemetry:        tel,
	}
	cfg.Admission.Gold.Rate = *goldRate
	cfg.Admission.Silver.Rate = *silverRate
	cfg.Admission.Bronze.Rate = *bronzeRate
	cfg.Admission.Gold.Burst = *goldBurst
	cfg.Admission.Silver.Burst = *silverBurst
	cfg.Admission.Bronze.Burst = *bronzeBurst
	cfg.Deadlines = cluster.SLODeadlines{Gold: *goldDeadline, Silver: *silverDeadline, Bronze: *bronzeDeadline}

	cl, err := cluster.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	cl.Start()
	defer cl.Close()

	httpSrv := &http.Server{Addr: *addr, Handler: cl.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("listening on http://%s, fronting %d replicas", *addr, len(replicas))

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}

	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}

	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			log.Fatalf("trace: %v", err)
		}
		if err := tel.WriteJSON(f); err != nil {
			log.Fatalf("trace: %v", err)
		}
		f.Close()
	}
}
