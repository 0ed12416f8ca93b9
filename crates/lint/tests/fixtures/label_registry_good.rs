//! GOOD: labels come from the registry; mentioning `const LBL_X` in a
//! comment, or "const LBL_Y: u64 = 2;" in a string, declares nothing.
use oscar_types::labels::sim_overlay::LBL_GROW;

pub fn stream(tree: &oscar_types::SeedTree) -> u64 {
    tree.child(LBL_GROW).seed()
}
