// Command lanbench regenerates Figure 7 of the paper: ordering-service
// throughput in a LAN for a given cluster size and block size, swept over
// envelope sizes (40 B / 200 B / 1 KB / 4 KB) and receiver counts (1-32).
//
// Usage:
//
//	lanbench [-nodes 4] [-block 10] [-receivers 1,2,4,8,16,32]
//	         [-sizes 40,200,1024,4096] [-clients 16] [-measure 3s]
//	         [-all] [-eq1] [-csv]
//
// -all runs every panel of Figure 7 (4/7/10 nodes x 10/100 envelopes per
// block); -eq1 additionally reports the Equation (1) bound check for each
// (nodes, block) combination.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lanbench:", err)
		os.Exit(1)
	}
}

func run() error {
	nodes := flag.Int("nodes", 4, "ordering cluster size (4, 7, or 10)")
	block := flag.Int("block", 10, "envelopes per block (10 or 100)")
	receiversFlag := flag.String("receivers", "1,2,4,8,16,32", "receiver counts to sweep")
	sizesFlag := flag.String("sizes", "40,200,1024,4096", "envelope sizes to sweep")
	clients := flag.Int("clients", 16, "closed-loop load clients")
	warmup := flag.Duration("warmup", time.Second, "warmup before measuring")
	measure := flag.Duration("measure", 3*time.Second, "measurement window per cell")
	all := flag.Bool("all", false, "run every Figure 7 panel")
	eq1 := flag.Bool("eq1", false, "also check Equation (1) for each panel")
	csv := flag.Bool("csv", false, "emit CSV instead of tables")
	flag.Parse()

	receivers, err := parseInts(*receiversFlag)
	if err != nil {
		return fmt.Errorf("bad -receivers: %w", err)
	}
	sizes, err := parseInts(*sizesFlag)
	if err != nil {
		return fmt.Errorf("bad -sizes: %w", err)
	}
	base := bench.Fig7Cell{Clients: *clients, Warmup: *warmup, Measure: *measure}

	type panel struct{ nodes, block int }
	panels := []panel{{*nodes, *block}}
	if *all {
		panels = []panel{
			{4, 10}, {4, 100}, {7, 10}, {7, 100}, {10, 10}, {10, 100},
		}
	}
	for _, p := range panels {
		fmt.Printf("# Figure 7: %d orderers, %d envelopes/block\n", p.nodes, p.block)
		rows, err := bench.RunFigure7Panel(p.nodes, p.block, sizes, receivers, base)
		if err != nil {
			return err
		}
		table := bench.NewTable("env_bytes", "receivers", "ktrans/sec", "blocks/sec")
		for _, row := range rows {
			table.AddRow(row.EnvSize, row.Receivers, row.TxPerSec/1000, row.BlockPerSec)
		}
		if *csv {
			fmt.Print(table.CSV())
		} else {
			fmt.Print(table.String())
		}
		if *eq1 {
			cell := base
			cell.Nodes = p.nodes
			cell.BlockSize = p.block
			cell.EnvSize = sizes[0]
			cell.Receivers = receivers[0]
			res, err := bench.RunEquation1(cell)
			if err != nil {
				return err
			}
			fmt.Printf("# Equation (1): TP=%.0f <= min(sign %.0f [%.1f env/sig], order %.0f) -> %v; paper's per-block sign term %.0f\n",
				res.MeasuredTPS, res.SignBoundTPS, res.EnvsPerSig, res.OrderBoundTPS, res.Satisfied, res.SignBoundPerBlockTPS)
		}
		fmt.Println()
	}
	return nil
}

func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
