// PlanetLab federation example: PLC, PLE and PLJ run SFA registries over
// loopback TCP, peer with each other, embed a federated slice that no single
// authority could host, and agree on Shapley value shares — the paper's
// deployment story end to end.
package main

import (
	"fmt"
	"log"
	"math"
	"sort"
	"time"

	"fedshare/internal/economics"
	"fedshare/internal/planetlab"
	"fedshare/internal/sfa"
)

var secret = []byte("onelab-federation-root")

func buildAuthority(name string, sites, nodesPerSite, capacity int) *planetlab.Authority {
	a := planetlab.NewAuthority(name)
	for s := 0; s < sites; s++ {
		site := &planetlab.Site{
			ID:   fmt.Sprintf("%s-site%02d", name, s),
			Name: fmt.Sprintf("%s site %d", name, s),
		}
		for n := 0; n < nodesPerSite; n++ {
			site.Nodes = append(site.Nodes, planetlab.Node{
				ID:       fmt.Sprintf("node%d", n),
				HostName: fmt.Sprintf("node%d.s%02d.%s.example.net", n, s, name),
				Capacity: capacity,
			})
		}
		if err := a.AddSite(site); err != nil {
			log.Fatal(err)
		}
	}
	return a
}

func main() {
	quiet := func(string, ...interface{}) {}

	// Demand profile used for share computation: one experiment spanning
	// at least 10 sites.
	demand, err := economics.NewWorkload(economics.DemandClass{
		Type: economics.ExperimentType{
			Name: "global-overlay", MinLocations: 10, MaxLocations: math.Inf(1),
			Resources: 1, HoldingTime: 1, Shape: 1,
		},
		Count: 1,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Three regional authorities of very different sizes (à la Fig 4, at
	// 1:100 scale: 1, 4 and 8 sites), started in this order.
	names, sites := []string{"PLC", "PLE", "PLJ"}, []int{1, 4, 8}
	servers := map[string]*sfa.Server{}
	for i, name := range names {
		srv := sfa.NewServer(buildAuthority(name, sites[i], 2, 5), secret,
			sfa.WithLogger(quiet), sfa.WithDemand(demand))
		if err := srv.Start("127.0.0.1:0"); err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		servers[name] = srv
		fmt.Printf("%s registry listening on %s (%d sites)\n", name, srv.Addr(), sites[i])
	}

	// Full-mesh peering.
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if err := servers[names[i]].PeerWith(servers[names[j]].Addr()); err != nil {
				log.Fatal(err)
			}
		}
	}
	fmt.Println("\nfull-mesh peering established")

	// A researcher affiliated with PLC wants a slice across 10 sites — far
	// beyond PLC's single site.
	client, err := sfa.Dial(servers["PLC"].Addr(), 5*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	cred := sfa.IssueCredential(secret, "alice", "PLC", time.Minute)

	var slice sfa.SliceResponse
	if err := client.Call(sfa.MethodCreateSlice, sfa.SliceRequest{
		Credential: cred, Name: "global-overlay", Owner: "alice", MinSites: 10,
	}, &slice); err != nil {
		log.Fatal(err)
	}
	perAuthority := map[string]int{}
	for _, sv := range slice.Slivers {
		perAuthority[sv.Authority]++
	}
	fmt.Printf("\nslice %q embedded on %d sites:\n", slice.Name, slice.Sites)
	for _, n := range names {
		fmt.Printf("  %s contributes %d slivers\n", n, perAuthority[n])
	}

	// Ask each authority for the Shapley shares; they all agree, because
	// the computation runs over the same advertised contributions.
	fmt.Println("\nvalue shares (policy = shapley):")
	var resp sfa.SharesResponse
	if err := client.Call(sfa.MethodGetShares, sfa.SharesRequest{Policy: "shapley"}, &resp); err != nil {
		log.Fatal(err)
	}
	keys := make([]string, 0, len(resp.Shares))
	for k := range resp.Shares {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-4s %6.2f%%\n", k, resp.Shares[k]*100)
	}
	fmt.Printf("federation value: %.0f site-slots\n", resp.GrandValue)

	// Compare with the proportional rule over the wire.
	var prop sfa.SharesResponse
	if err := client.Call(sfa.MethodGetShares, sfa.SharesRequest{Policy: "proportional"}, &prop); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nvalue shares (policy = proportional):")
	for _, k := range keys {
		fmt.Printf("  %-4s %6.2f%%\n", k, prop.Shares[k]*100)
	}

	// Tear the slice down; capacity returns everywhere.
	if err := client.Call(sfa.MethodDeleteSlice, sfa.DeleteRequest{Credential: cred, Name: "global-overlay"}, nil); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nslice deleted; federated capacity released")
}
