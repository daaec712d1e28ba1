//! The Burgers model problem as a runtime [`Application`].

use sw_athread::{CpeTileKernel, TileCostModel};
use sw_math::exp::ExpKind;

use uintah_core::grid::{Level, Region};
use uintah_core::task::Application;
use uintah_core::var::CcVar;

use crate::kernel::{BurgersCost, BurgersScalarKernel, Geometry};
use crate::kernel_simd::BurgersSimdKernel;
use crate::phi::{exact_u, exact_u_flops};

/// The 3-D Burgers model fluid-flow problem (paper §III), ready to run on
/// the `uintah-core` schedulers.
pub struct BurgersApp {
    geom: Geometry,
    exp: ExpKind,
    cost: BurgersCost,
    scalar: BurgersScalarKernel,
    simd: BurgersSimdKernel,
    /// CFL safety factor for the forward-Euler stable timestep.
    pub cfl: f64,
}

impl BurgersApp {
    /// Build for a level's spacing and physical origin with the given exp
    /// library.
    pub fn new(level: &Level, exp: ExpKind) -> Self {
        let (dx, dy, dz) = level.spacing();
        let geom = Geometry::with_origin(dx, dy, dz, level.phys_lo());
        BurgersApp {
            geom,
            exp,
            cost: BurgersCost { exp },
            scalar: BurgersScalarKernel { geom, exp },
            simd: BurgersSimdKernel { geom, exp },
            cfl: 0.4,
        }
    }

    /// The geometry in use.
    pub fn geometry(&self) -> Geometry {
        self.geom
    }

    /// Exact solution at a cell centroid at time `t`.
    pub fn exact_at(&self, level: &Level, c: uintah_core::IntVec, t: f64) -> f64 {
        let (x, y, z) = level.cell_center(c);
        exact_u(x, y, z, t, self.exp)
    }
}

impl Application for BurgersApp {
    fn name(&self) -> &str {
        "burgers3d"
    }

    fn ghost(&self) -> i64 {
        1
    }

    fn cost(&self) -> &dyn TileCostModel {
        &self.cost
    }

    fn kernel(&self, simd: bool) -> &dyn CpeTileKernel {
        if simd {
            &self.simd
        } else {
            &self.scalar
        }
    }

    fn bc_flops_per_cell(&self) -> u64 {
        exact_u_flops(self.exp)
    }

    fn exp(&self) -> Option<ExpKind> {
        Some(self.exp)
    }

    /// Forward-Euler stability: advective CFL (|phi| <= 1) plus the
    /// diffusion limit.
    fn stable_dt(&self, _level: &Level) -> f64 {
        let g = &self.geom;
        let adv = g.inv_dx + g.inv_dy + g.inv_dz; // max |phi| = 1
        let diff = 2.0 * crate::phi::NU * (g.inv_dx2 + g.inv_dy2 + g.inv_dz2);
        self.cfl / (adv + diff)
    }

    fn init(&self, level: &Level, region: &Region, var: &mut CcVar) {
        for c in region.iter() {
            let (x, y, z) = level.cell_center(c);
            var.set(c, exact_u(x, y, z, 0.0, self.exp));
        }
    }

    fn fill_boundary(&self, level: &Level, region: &Region, var: &mut CcVar, t: f64) {
        for c in region.iter() {
            let (x, y, z) = level.cell_center(c);
            var.set(c, exact_u(x, y, z, t, self.exp));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uintah_core::grid::iv;

    fn level() -> Level {
        Level::new(iv(8, 8, 8), iv(2, 2, 2))
    }

    #[test]
    fn stable_dt_is_positive_and_small() {
        let l = level();
        let app = BurgersApp::new(&l, ExpKind::Fast);
        let dt = app.stable_dt(&l);
        // dx = 1/16: adv = 48, diff = 2*0.01*3*256 = 15.36 -> dt ~ 0.0063.
        assert!(dt > 0.0 && dt < 0.01, "{dt}");
        let expect = 0.4 / (48.0 + 15.36);
        assert!((dt - expect).abs() < 1e-12);
    }

    #[test]
    fn init_matches_exact_at_zero() {
        let l = level();
        let app = BurgersApp::new(&l, ExpKind::Fast);
        let region = l.patch(0).region;
        let mut var = CcVar::new(region);
        app.init(&l, &region, &mut var);
        for c in [iv(0, 0, 0), iv(7, 3, 5)] {
            assert_eq!(var.get(c), app.exact_at(&l, c, 0.0));
        }
    }

    #[test]
    fn boundary_fill_uses_current_time() {
        let l = level();
        let app = BurgersApp::new(&l, ExpKind::Fast);
        let ghost = l.patch(0).region.face_ghost(
            uintah_core::grid::region::Face {
                axis: 0,
                high: false,
            },
            1,
        );
        let mut var = CcVar::new(l.patch(0).region.grow(1));
        app.fill_boundary(&l, &ghost, &mut var, 0.07);
        let c = iv(-1, 2, 3);
        assert_eq!(var.get(c), app.exact_at(&l, c, 0.07));
        assert_ne!(var.get(c), app.exact_at(&l, c, 0.0));
    }

    #[test]
    fn bc_flops_are_an_exact_solution_evaluation() {
        let l = level();
        let app = BurgersApp::new(&l, ExpKind::Fast);
        assert_eq!(app.bc_flops_per_cell(), exact_u_flops(ExpKind::Fast));
        assert_eq!(app.bc_flops_per_cell(), 278);
    }
}
