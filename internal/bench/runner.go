package bench

import (
	"context"

	"etx/internal/latcost"
)

// Runner is a running deployment of one protocol with a uniform
// issue-one-request surface, used by the Figure-8 table and the
// repository-level testing.B benchmarks.
type Runner struct {
	issue func(ctx context.Context) error
	check func() error // the protocol's oracle, if it has one
	stop  func()
}

// Issue runs one committed request end to end.
func (r *Runner) Issue(ctx context.Context) error { return r.issue(ctx) }

// Stop tears the deployment down.
func (r *Runner) Stop() { r.stop() }

// NewRunner builds a deployment of the named protocol (ProtocolBaseline,
// Protocol2PC, ProtocolPB or ProtocolAR) on the cost model at the given
// scale.
func NewRunner(protocol string, scale float64) (*Runner, error) {
	return newRunner(protocol, latcost.Paper(scale), 3, nil)
}

// newRunner is NewRunner on an explicit model, with appServers AR replicas
// and, if rec is set, the protocol's spans recorded (primary-backup has no
// Figure-8 column and records none).
func newRunner(protocol string, model latcost.Model, appServers int, rec *latcost.Recorder) (*Runner, error) {
	switch protocol {
	case ProtocolBaseline, Protocol2PC:
		build := newBaselineRig
		if protocol == Protocol2PC {
			build = newTwoPCRig
		}
		rig, err := build(model, rec)
		if err != nil {
			return nil, err
		}
		return &Runner{
			issue: func(ctx context.Context) error {
				dec, err := rig.client.Call(ctx, benchRequest())
				if err != nil {
					return err
				}
				if !dec.Committed() {
					return errf("%s request aborted", protocol)
				}
				return nil
			},
			stop: rig.stop,
		}, nil
	case ProtocolPB:
		rig, err := newPBRig(model, nil, nil)
		if err != nil {
			return nil, err
		}
		return &Runner{
			issue: func(ctx context.Context) error {
				_, err := rig.client.Issue(ctx, benchRequest())
				return err
			},
			stop: rig.stop,
		}, nil
	case ProtocolAR:
		c, err := arDeployment(model, appServers, 1, rec)
		if err != nil {
			return nil, err
		}
		return &Runner{
			issue: func(ctx context.Context) error {
				res, err := c.Client(1).Issue(ctx, benchRequest())
				if err == nil && len(res) == 0 {
					err = errf("AR request returned an empty result")
				}
				return err
			},
			check: func() error {
				if rep := c.CheckProperties(); !rep.Ok() {
					return errf("AR oracle violations: %s", rep)
				}
				return nil
			},
			stop: c.Stop,
		}, nil
	default:
		return nil, errf("unknown protocol %q", protocol)
	}
}
