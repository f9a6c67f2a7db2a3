package client_test

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"

	"galactos"
	"galactos/client"
	"galactos/internal/service"
)

// A job is a galactos.Request, the same value Run takes, sent as JSON to a
// galactosd server (here an in-process one, the same service.New + Handler
// pair the galactosd command serves). Its progress streams back as events;
// an identical resubmission is answered from the result cache, keyed by the
// catalog's content hash and the config fingerprint, without recomputing.
func ExampleClient() {
	svc, err := service.New(service.Options{Workers: 1})
	if err != nil {
		log.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	ctx := context.Background()
	defer func() {
		svc.Shutdown(ctx)
		srv.Close()
	}()

	cfg := galactos.DefaultConfig()
	cfg.RMax = 60
	cfg.NBins = 6
	cfg.LMax = 5
	req := galactos.Request{
		Catalog: galactos.GenerateClustered(1000, 200, galactos.DefaultClusterParams(), 1),
		Config:  cfg,
	}

	cl := client.New(srv.URL, nil)
	st, err := cl.SubmitStream(ctx, req, func(ev client.Event) {
		if ev.Type == "state" {
			fmt.Println("state:", ev.State)
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := cl.Result(ctx, st.ID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d pairs over %d primaries\n", st.ID, res.Pairs, res.NPrimaries)
	fmt.Print("zeta_0(r, r):")
	for b := 0; b < cfg.NBins; b++ {
		fmt.Printf(" %.4g", res.IsoZeta(0, b, b))
	}
	fmt.Println()

	again, err := cl.Submit(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	if again, err = cl.Wait(ctx, again.ID); err != nil {
		log.Fatal(err)
	}
	stats, err := cl.Stats(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %s, cache_hit=%v (server: %d hit, %d miss)\n",
		again.ID, again.State, again.CacheHit, stats.CacheHits, stats.CacheMisses)
	// Output:
	// state: queued
	// state: running
	// state: done
	// job-000001: 117462 pairs over 1000 primaries
	// zeta_0(r, r): 6480 5.208e+04 1.361e+05 4.346e+05 1.062e+06 2.272e+06
	// job-000002: done, cache_hit=true (server: 1 hit, 1 miss)
}
