package diffverify

import (
	"bytes"
	"fmt"
	"strings"

	"opendesc/internal/core"
	"opendesc/internal/nic"
	"opendesc/internal/nicsim"
	"opendesc/internal/p4/sema"
)

// newDevice builds the simulated device view E runs on.
func newDevice(name string, spec core.DeparserSpec) (*nicsim.Device, error) {
	dev, err := nicsim.New(&nic.Model{Name: name, Info: spec.Info, Deparser: spec}, nicsim.Config{})
	if err != nil {
		return nil, &RejectedError{Reason: fmt.Sprintf("device: %v", err)}
	}
	return dev, nil
}

// checkDevice is view E: the simulated device, reset and programmed with the
// path's configuration, must emit each golden packet's completion with its
// lowered emit program exactly as its reference CFG interpreter serializes
// it — same accept verdict, same bytes. When the deparser cannot fold under
// the path's context alone (a reachable branch reads per-packet metadata),
// the device must report that it fell back to the interpreter.
func (c *pathChecker) checkDevice(dev *nicsim.Device) error {
	if c.capped() {
		return nil
	}
	if err := dev.Reset(); err != nil {
		return fmt.Errorf("diffverify %s path %d: device reset: %w", c.name, c.p.ID, err)
	}
	if err := dev.ApplyConfig(c.p.Constraints); err != nil {
		return fmt.Errorf("diffverify %s path %d: device config: %w", c.name, c.p.ID, err)
	}
	if _, _, err := walkSerialize(c.g, c.contextEnv(dev.ContextParam())); err != nil {
		c.rep.DeviceChecks++
		if dev.Lowered() {
			c.deviceFail(nil, nil, fmt.Sprintf("deparser needs more than the context (%v) but the device lowered it", err))
			return nil
		}
	}
	n := c.opts.Packets
	if n <= 0 {
		n = 4
	}
	for j := 0; j < n; j++ {
		packet := goldenPacket(c.p.ID, j)
		before := dev.Stats().CompletionBytes
		accepted := dev.RxPacket(packet)
		want, err := dev.ReferenceCompletion(packet)
		c.rep.DeviceChecks++
		if accepted != (err == nil) {
			c.deviceFail(nil, want, fmt.Sprintf("device accepted=%v, reference interpreter: %v", accepted, err))
			return nil
		}
		if !accepted {
			continue
		}
		size := int(dev.Stats().CompletionBytes - before)
		got := append([]byte(nil), dev.CmptRing.Peek()[:size]...)
		dev.CmptRing.Pop()
		if !bytes.Equal(got, want) {
			c.deviceFail(got, want, "lowered emit program diverges from the reference interpreter")
			return nil
		}
	}
	return nil
}

// contextEnv is the path's pinned configuration restricted to the context
// parameter: what the device knows before any packet arrives.
func (c *pathChecker) contextEnv(ctxParam string) sema.MapEnv {
	env := make(sema.MapEnv, len(c.pins))
	for k, v := range c.pins {
		if strings.HasPrefix(k, ctxParam+".") {
			env[k] = sema.UintValue(v, 64)
		}
	}
	return env
}

// deviceFail records a view-E disagreement with the first diverging field.
func (c *pathChecker) deviceFail(got, want []byte, detail string) {
	_, f := firstImageDiff(c.p, want, got)
	c.rep.Disagreements = append(c.rep.Disagreements, &Disagreement{
		NIC:         c.name,
		PathID:      c.p.ID,
		Constraints: constraintStrings(c.p),
		View:        "device",
		Field:       f.Name,
		Semantic:    string(f.Semantic),
		OffsetBits:  f.OffsetBits,
		WidthBits:   f.WidthBits,
		Image:       got,
		Want:        readField(want, f),
		Got:         readField(got, f),
		Detail:      detail,
	})
}
