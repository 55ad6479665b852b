package kernel

import (
	"errors"
	"testing"
)

func TestACLAllowsListedConsumer(t *testing.T) {
	c := newCluster(t, 2)
	_, meta := producerSetup(t, c, 0, 0x100000, 0x101000, []byte("guarded"))
	if err := c.kernels[0].SetACL(meta.ID, meta.Key, []FuncID{500}); err != nil {
		t.Fatal(err)
	}
	cons := c.newAS(1)
	mp, err := c.kernels[1].RmapMeta(cons, meta, 500, PagingRDMA)
	if err != nil {
		t.Fatal(err)
	}
	defer mp.Unmap()
	got := make([]byte, 7)
	if err := cons.Read(0x100000, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "guarded" {
		t.Errorf("got %q", got)
	}
}

func TestACLDeniesUnlistedConsumer(t *testing.T) {
	c := newCluster(t, 2)
	_, meta := producerSetup(t, c, 0, 0x100000, 0x101000, []byte("guarded"))
	if err := c.kernels[0].SetACL(meta.ID, meta.Key, []FuncID{500}); err != nil {
		t.Fatal(err)
	}
	cons := c.newAS(1)
	// Wrong identity: denied even with the correct key.
	_, err := c.kernels[1].RmapMeta(cons, meta, 501, PagingRDMA)
	if err == nil {
		t.Fatal("unlisted consumer mapped guarded memory")
	}
	// Anonymous consumer likewise.
	if _, err := c.kernels[1].Rmap(cons, meta.Machine, meta.ID, meta.Key,
		meta.Start, meta.End); err == nil {
		t.Fatal("anonymous consumer mapped guarded memory")
	}
}

func TestACLEmptyAllowsAnyKeyHolder(t *testing.T) {
	c := newCluster(t, 2)
	_, meta := producerSetup(t, c, 0, 0x100000, 0x101000, []byte("open"))
	if err := c.kernels[0].SetACL(meta.ID, meta.Key, nil); err != nil {
		t.Fatal(err)
	}
	cons := c.newAS(1)
	mp, err := c.kernels[1].Rmap(cons, meta.Machine, meta.ID, meta.Key, meta.Start, meta.End)
	if err != nil {
		t.Fatalf("open registration denied: %v", err)
	}
	defer mp.Unmap()
}

func TestACLUnknownRegistration(t *testing.T) {
	c := newCluster(t, 1)
	if err := c.kernels[0].SetACL(99, 99, []FuncID{1}); !errors.Is(err, ErrNotRegistered) {
		t.Errorf("err = %v", err)
	}
}

func TestACLExtension(t *testing.T) {
	// Forwarding scenario: the coordinator widens the ACL mid-flight.
	c := newCluster(t, 3)
	_, meta := producerSetup(t, c, 0, 0x100000, 0x101000, []byte("chained"))
	if err := c.kernels[0].SetACL(meta.ID, meta.Key, []FuncID{10}); err != nil {
		t.Fatal(err)
	}
	cons := c.newAS(2)
	if _, err := c.kernels[2].RmapMeta(cons, meta, 20, PagingRDMA); err == nil {
		t.Fatal("consumer 20 mapped before ACL extension")
	}
	if err := c.kernels[0].SetACL(meta.ID, meta.Key, []FuncID{10, 20}); err != nil {
		t.Fatal(err)
	}
	mp, err := c.kernels[2].RmapMeta(cons, meta, 20, PagingRDMA)
	if err != nil {
		t.Fatalf("consumer 20 denied after extension: %v", err)
	}
	defer mp.Unmap()
}
