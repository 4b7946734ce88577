//! `game-runtime` / `game-cluster`: the multiplayer game of §2 under one
//! op stream on two backends.
//!
//! Every `get_gold` crosses three contexts (player, its mine, the room's
//! shared treasure), so on the runtime the executor, dominator sequencing
//! and activation locks do all the work; on the cluster the same app work
//! additionally pays the gateway hop, `Act`/`Exec`/`Release`/`Done` and a
//! remote sub-call per foreign context.

use super::{read_i64, thread_rng, Event, Side, Size, Tally, World, LOAD_THREADS};
use aeon::api::Deployment;
use aeon::types::args;
use aeon::ContextId;
use aeon_apps::game::{deploy_game, GameWorld};
use rand::Rng;

/// Gold every mine starts with (fixed by `aeon_apps::game::deploy_game`).
const MINE_GOLD: i64 = 1_000_000;

/// (rooms, players per room).
fn shape(size: Size) -> (usize, usize) {
    size.pick((8, 4), (2, 2))
}

/// One op of the game mix, before it is bound to context ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GameOp {
    /// 80 %: `Player::get_gold(1)` — exclusive, three contexts.
    GetGold { room: usize, player: usize },
    /// 15 %: `Player::treasure_balance` — read-only, two contexts.
    TreasureBalance { room: usize, player: usize },
    /// 4 %: `Building::count_players` — read-only over the whole tree.
    CountPlayers,
    /// 1 %: `Building::update_time_of_day` — exclusive at the root.
    UpdateTimeOfDay,
}

/// The op stream of load thread `thread` for `seed`.
pub fn generate(seed: u64, thread: usize, size: Size) -> Vec<GameOp> {
    let (rooms, players) = shape(size);
    let mut rng = thread_rng(seed, thread);
    (0..size.stream_len())
        .map(|_| {
            let roll = rng.gen_range(0..100u32);
            let room = rng.gen_range(0..rooms);
            let player = rng.gen_range(0..players);
            match roll {
                0..=79 => GameOp::GetGold { room, player },
                80..=94 => GameOp::TreasureBalance { room, player },
                95..=98 => GameOp::CountPlayers,
                _ => GameOp::UpdateTimeOfDay,
            }
        })
        .collect()
}

fn bind(world: &GameWorld, op: GameOp) -> Event {
    match op {
        GameOp::GetGold { room, player } => {
            Event::update(world.players[room][player], "get_gold", args![1])
        }
        GameOp::TreasureBalance { room, player } => {
            Event::read(world.players[room][player], "treasure_balance", args![])
        }
        GameOp::CountPlayers => Event::read(world.building, "count_players", args![]),
        GameOp::UpdateTimeOfDay => Event::update(world.building, "update_time_of_day", args![]),
    }
}

/// Gold is only ever moved from a mine to a treasure, so the total is what
/// the mines started with.
pub fn check_gold(mines: &[i64], treasures: &[i64]) -> Result<(), String> {
    let total: i64 = mines.iter().chain(treasures).sum();
    let expected = mines.len() as i64 * MINE_GOLD;
    if total == expected {
        Ok(())
    } else {
        Err(format!(
            "gold not conserved: mines + treasures hold {total}, expected {expected}"
        ))
    }
}

/// Deploys the game and binds the streams.
pub fn deploy(deployment: &dyn Deployment, seed: u64, size: Size) -> aeon::Result<World> {
    let (rooms, players) = shape(size);
    let world = deploy_game(deployment, rooms, players)?;
    let streams = (0..LOAD_THREADS)
        .map(|t| {
            generate(seed, t, size)
                .into_iter()
                .map(|op| bind(&world, op))
                .collect()
        })
        .collect();
    // A player owns its private mine and the shared treasure; the mine is
    // the item that is not the room's treasure.
    let graph = deployment.ownership_graph();
    let mut mines: Vec<ContextId> = Vec::new();
    for (room, room_players) in world.players.iter().enumerate() {
        for player in room_players {
            mines.extend(
                graph
                    .children(*player)?
                    .iter()
                    .filter(|item| **item != world.treasures[room]),
            );
        }
    }
    let treasures = world.treasures.clone();
    Ok(World {
        streams,
        side: Side::None,
        invariant: Box::new(move |deployment: &dyn Deployment, _: &Tally| {
            let session = deployment.session();
            let read = |items: &[ContextId]| -> Result<Vec<i64>, String> {
                items
                    .iter()
                    .map(|item| read_i64(session.as_ref(), *item, "get", args!["gold"]))
                    .collect()
            };
            check_gold(&read(&mines)?, &read(&treasures)?)
        }),
        root: world.building,
        social: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_a_function_of_seed_and_thread() {
        assert_eq!(generate(7, 0, Size::Smoke), generate(7, 0, Size::Smoke));
        assert_ne!(generate(7, 0, Size::Smoke), generate(7, 1, Size::Smoke));
        assert_ne!(generate(7, 0, Size::Smoke), generate(8, 0, Size::Smoke));
    }

    #[test]
    fn mix_is_mostly_get_gold_with_rare_root_updates() {
        let ops = generate(1, 0, Size::Full);
        let share = |f: fn(&GameOp) -> bool| {
            ops.iter().filter(|op| f(op)).count() as f64 / ops.len() as f64
        };
        assert!((share(|op| matches!(op, GameOp::GetGold { .. })) - 0.80).abs() < 0.02);
        assert!((share(|op| matches!(op, GameOp::UpdateTimeOfDay)) - 0.01).abs() < 0.005);
    }

    #[test]
    fn lost_or_invented_gold_fails_the_invariant() {
        assert!(check_gold(&[MINE_GOLD - 5, MINE_GOLD], &[5]).is_ok());
        assert!(check_gold(&[MINE_GOLD - 5, MINE_GOLD], &[4]).is_err());
        assert!(check_gold(&[MINE_GOLD, MINE_GOLD], &[1]).is_err());
    }
}
