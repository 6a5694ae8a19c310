// Networked: deploy the three LPPA parties over real TCP sockets.
//
// The TTP and the auctioneer each get their own listener; ten bidder
// clients connect concurrently, fetch the key ring from the TTP, submit
// masked locations and bids to the auctioneer, and wait for their results.
// The auctioneer never holds a key; the TTP never sees a location.
//
//	go run ./examples/networked
package main

import (
	"fmt"
	"log"
	"log/slog"
	"math/rand"
	"net"
	"os"
	"sync"

	"lppa"
	"lppa/internal/transport"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const n = 10
	params := lppa.Params{Channels: 6, Lambda: 3, MaxX: 63, MaxY: 63, BMax: 100}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn}))

	// Party 1: the TTP (key escrow + charging).
	lnTTP, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	cfg, err := transport.New(transport.WithLogger(logger))
	if err != nil {
		return err
	}
	ttpSrv, err := transport.NewTTPServerWithConfig(params, []byte("networked-example"), 5, 8, lnTTP, cfg)
	if err != nil {
		return err
	}
	defer ttpSrv.Close()

	// Party 2: the auctioneer (untrusted; sees only masked data).
	lnAuc, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	aucSrv, err := transport.NewAuctioneerServerWithConfig(params, n, ttpSrv.Addr().String(), lnAuc, 99, cfg)
	if err != nil {
		return err
	}
	defer aucSrv.Close()
	fmt.Printf("TTP %s | auctioneer %s\n\n", ttpSrv.Addr(), aucSrv.Addr())

	// Party 3..12: bidders, each in its own goroutine with its own
	// location, valuation, and privacy policy.
	rng := rand.New(rand.NewSource(17))
	var wg sync.WaitGroup
	results := make([]*lppa.Result, n)
	for i := 0; i < n; i++ {
		pt := lppa.Point{X: uint64(rng.Intn(64)), Y: uint64(rng.Intn(64))}
		bids := make([]uint64, params.Channels)
		for r := range bids {
			if rng.Intn(4) > 0 {
				bids[r] = uint64(rng.Intn(100)) + 1
			}
		}
		policy := lppa.DisguisePolicy{P0: 0.6 + 0.4*rng.Float64(), Decay: 0.95}
		wg.Add(1)
		go func(i int, pt lppa.Point, bids []uint64, policy lppa.DisguisePolicy) {
			defer wg.Done()
			client := &lppa.BidderClient{ID: i, Params: params, Policy: policy}
			res, err := client.Participate(ttpSrv.Addr().String(), aucSrv.Addr().String(),
				pt, bids, rand.New(rand.NewSource(int64(1000+i))))
			if err != nil {
				fmt.Printf("bidder %d failed: %v\n", i, err)
				return
			}
			results[i] = res
		}(i, pt, bids, policy)
	}
	wg.Wait()

	outcome := aucSrv.Wait()
	if outcome == nil {
		return fmt.Errorf("round failed")
	}
	for i, res := range results {
		switch {
		case res == nil:
			fmt.Printf("bidder %2d: error\n", i)
		case res.Won:
			fmt.Printf("bidder %2d: won channel %d for %d\n", i, res.Channel, res.Price)
		case res.Voided:
			fmt.Printf("bidder %2d: voided (a zero bid won — TTP caught it)\n", i)
		default:
			fmt.Printf("bidder %2d: no spectrum this round\n", i)
		}
	}
	fmt.Printf("\nauctioneer revenue: %d (%d voided awards)\n", outcome.Revenue, outcome.Voided)
	return nil
}
