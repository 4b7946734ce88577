//! The multiplayer game application (§2 and §6.1.1).
//!
//! Structure (Figure 3): a `Building` owns `Room`s; each `Room` owns its
//! `Player`s and a pool of `Item`s; with multi-ownership, `Player`s also own
//! the `Item`s they interact with (sharing them with the `Room` and other
//! `Player`s).  (The paper's single-ownership baselines, AEON_SO and
//! EventWave, own `Item`s by their `Room` only; they are not modelled here.)
//!
//! The contextclasses are declared with [`aeon_runtime::context_class!`]
//! method tables and the deployment driver is generic over
//! [`aeon_api::Deployment`], so the same game runs unchanged on the
//! in-process runtime, the distributed cluster, and the virtual-time sim.

use crate::{restored, ClassFactory};
use aeon_api::Deployment;
use aeon_ownership::ClassGraph;
use aeon_runtime::{context_class, ContextClass, Invocation, KvContext};
use aeon_types::{args, AeonError, Args, ContextId, Result, Value};

/// Class constraints of the game (Figure 3, left), with the contextclass
/// method metadata declared from the method tables.
pub fn game_class_graph() -> ClassGraph {
    let mut classes = ClassGraph::new();
    classes.add_constraint("Building", "Room");
    classes.add_constraint("Room", "Player");
    classes.add_constraint("Room", "Item");
    classes.add_constraint("Player", "Item");
    Building::table().declare_in(&mut classes);
    Room::table().declare_in(&mut classes);
    Player::table().declare_in(&mut classes);
    classes
}

// ---------------------------------------------------------------------------
// Contextclasses.
// ---------------------------------------------------------------------------

/// The game's classes, each with the factory that rebuilds it from a
/// snapshot (its items are key-value contexts of class `Item`).
pub fn game_factories() -> Vec<ClassFactory> {
    vec![
        ("Building", restored::<Building>()),
        ("Room", restored::<Room>()),
        ("Player", restored::<Player>()),
    ]
}

/// The `Building` contextclass of Listing 1: owns rooms, can update the time
/// of day in every room with `async` calls and count players read-only.
#[derive(Debug, Default)]
pub struct Building;

impl Building {
    fn update_time_of_day(&mut self, _args: &Args, inv: &mut Invocation<'_>) -> Result<Value> {
        for room in inv.children(Some("Room"))? {
            inv.call_async(room, "update_time_of_day", args![])?;
        }
        Ok(Value::Null)
    }

    fn count_players(&mut self, _args: &Args, inv: &mut Invocation<'_>) -> Result<Value> {
        let mut count = 0i64;
        for room in inv.children(Some("Room"))? {
            count += inv.call(room, "nr_players", args![])?.as_i64().unwrap_or(0);
        }
        Ok(Value::from(count))
    }
}

context_class! {
    Building: "Building" {
        method "update_time_of_day" calls ["Room::update_time_of_day"] => Building::update_time_of_day,
        ro method "count_players" calls ["Room::nr_players"] => Building::count_players,
    }
}

/// The `Room` contextclass: counts players/items and propagates the time of
/// day.
#[derive(Debug, Default)]
pub struct Room {
    time_of_day: i64,
}

impl Room {
    fn update_time_of_day(&mut self, _args: &Args, _inv: &mut Invocation<'_>) -> Result<Value> {
        self.time_of_day += 1;
        Ok(Value::from(self.time_of_day))
    }

    fn nr_players(&mut self, _args: &Args, inv: &mut Invocation<'_>) -> Result<Value> {
        Ok(Value::from(inv.children(Some("Player"))?.len()))
    }

    fn nr_items(&mut self, _args: &Args, inv: &mut Invocation<'_>) -> Result<Value> {
        Ok(Value::from(inv.children(Some("Item"))?.len()))
    }

    fn snapshot_state(&self) -> Value {
        Value::map([("time_of_day", Value::from(self.time_of_day))])
    }

    fn restore_state(&mut self, state: &Value) {
        self.time_of_day = state
            .get("time_of_day")
            .and_then(Value::as_i64)
            .unwrap_or(0);
    }
}

context_class! {
    Room: "Room" {
        method "update_time_of_day" calls [] => Room::update_time_of_day,
        ro method "nr_players" calls [] => Room::nr_players,
        ro method "nr_items" calls [] => Room::nr_items,
    }
    snapshot = Room::snapshot_state;
    restore = Room::restore_state;
}

/// The `Player` contextclass of Listing 1: moves gold from its mine into the
/// (shared) treasure.
#[derive(Debug, Default)]
pub struct Player {
    /// Private gold mine item.
    pub gold_mine: Option<ContextId>,
    /// Shared treasure item.
    pub treasure: Option<ContextId>,
}

impl Player {
    fn set_items(&mut self, args: &Args, _inv: &mut Invocation<'_>) -> Result<Value> {
        self.gold_mine = Some(args.get_context(0)?);
        self.treasure = Some(args.get_context(1)?);
        Ok(Value::Null)
    }

    fn get_gold(&mut self, args: &Args, inv: &mut Invocation<'_>) -> Result<Value> {
        let amount = args.get_i64(0)?;
        let withdrawal = amount
            .checked_neg()
            .ok_or_else(|| AeonError::overflow(format_args!("the withdrawal -({amount})")))?;
        let mine = self
            .gold_mine
            .ok_or_else(|| AeonError::app("player has no mine"))?;
        let treasure = self
            .treasure
            .ok_or_else(|| AeonError::app("player has no treasure"))?;
        let available = inv.call(mine, "get", args!["gold"])?.as_i64().unwrap_or(0);
        if available < amount {
            return Ok(Value::Bool(false));
        }
        inv.call(mine, "incr", args!["gold", withdrawal])?;
        inv.call(treasure, "incr", args!["gold", amount])?;
        Ok(Value::Bool(true))
    }

    fn treasure_balance(&mut self, _args: &Args, inv: &mut Invocation<'_>) -> Result<Value> {
        let treasure = self
            .treasure
            .ok_or_else(|| AeonError::app("player has no treasure"))?;
        inv.call(treasure, "get", args!["gold"])
    }

    fn snapshot_state(&self) -> Value {
        Value::map([
            (
                "gold_mine",
                self.gold_mine.map(Value::from).unwrap_or(Value::Null),
            ),
            (
                "treasure",
                self.treasure.map(Value::from).unwrap_or(Value::Null),
            ),
        ])
    }

    fn restore_state(&mut self, state: &Value) {
        self.gold_mine = state.get("gold_mine").and_then(Value::as_context);
        self.treasure = state.get("treasure").and_then(Value::as_context);
    }
}

context_class! {
    Player: "Player" {
        method "set_items" calls [] => Player::set_items,
        method "get_gold" calls ["Item::get", "Item::incr"] => Player::get_gold,
        ro method "treasure_balance" calls ["Item::get"] => Player::treasure_balance,
    }
    snapshot = Player::snapshot_state;
    restore = Player::restore_state;
}

/// Handles to a deployed game world.
#[derive(Debug, Clone)]
pub struct GameWorld {
    /// The building (root of the ownership DAG).
    pub building: ContextId,
    /// The rooms, one per server by default.
    pub rooms: Vec<ContextId>,
    /// Players, grouped by room.
    pub players: Vec<Vec<ContextId>>,
    /// The shared treasure of each room.
    pub treasures: Vec<ContextId>,
}

/// Deploys a game world onto any [`Deployment`] backend: `rooms` rooms each
/// holding `players_per_room` players, a private gold mine per player and
/// one shared treasure per room.
///
/// # Errors
///
/// Propagates context-creation failures.
pub fn deploy_game(
    deployment: &dyn Deployment,
    rooms: usize,
    players_per_room: usize,
) -> Result<GameWorld> {
    let session = deployment.session();
    let building = deployment.create_context(Box::new(Building), aeon_api::Placement::Auto)?;
    let mut world = GameWorld {
        building,
        rooms: Vec::new(),
        players: Vec::new(),
        treasures: Vec::new(),
    };
    for _ in 0..rooms {
        let room = deployment.create_owned_context(Box::new(Room::default()), &[building])?;
        let treasure = deployment.create_owned_context(
            Box::new(KvContext::with_entries(
                "Item",
                [("gold", Value::from(0i64))],
            )),
            &[room],
        )?;
        let mut room_players = Vec::new();
        for _ in 0..players_per_room {
            let player = deployment.create_owned_context(Box::new(Player::default()), &[room])?;
            let mine = deployment.create_owned_context(
                Box::new(KvContext::with_entries(
                    "Item",
                    [("gold", Value::from(1_000_000i64))],
                )),
                &[player],
            )?;
            deployment.add_ownership(player, treasure)?;
            session.call(player, "set_items", args![mine, treasure])?;
            room_players.push(player);
        }
        world.rooms.push(room);
        world.players.push(room_players);
        world.treasures.push(treasure);
    }
    Ok(world)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeon_api::Session;
    use aeon_ownership::Dominator;
    use aeon_runtime::AeonRuntime;

    #[test]
    fn runtime_game_listing1_scenario() {
        let runtime = AeonRuntime::builder()
            .servers(2)
            .class_graph(game_class_graph())
            .build()
            .unwrap();
        let world = deploy_game(&runtime, 2, 2).unwrap();
        let client = runtime.client();
        // Every player can move gold into the shared treasure.
        for (r, players) in world.players.iter().enumerate() {
            for p in players {
                assert_eq!(
                    client.call(*p, "get_gold", args![10]).unwrap(),
                    Value::Bool(true)
                );
            }
            assert_eq!(
                client
                    .call_readonly(world.treasures[r], "get", args!["gold"])
                    .unwrap(),
                Value::from(20i64)
            );
        }
        // Building-level aggregate and async time-of-day update.
        assert_eq!(
            client
                .call_readonly(world.building, "count_players", args![])
                .unwrap(),
            Value::from(4i64)
        );
        client
            .call(world.building, "update_time_of_day", args![])
            .unwrap();
        runtime.shutdown();
    }

    #[test]
    fn players_share_treasure_and_dominate_at_room() {
        let runtime = AeonRuntime::builder()
            .servers(2)
            .class_graph(game_class_graph())
            .build()
            .unwrap();
        let world = deploy_game(&runtime, 1, 3).unwrap();
        for p in &world.players[0] {
            assert_eq!(
                runtime.dominator_of(*p).unwrap(),
                Dominator::Context(world.rooms[0])
            );
        }
        runtime.shutdown();
    }

    #[test]
    fn class_graph_carries_method_metadata() {
        let classes = game_class_graph();
        assert_eq!(
            classes.readonly_method("Building", "count_players"),
            Some(true)
        );
        assert_eq!(
            classes.readonly_method("Building", "update_time_of_day"),
            Some(false)
        );
        assert_eq!(
            classes.readonly_method("Player", "treasure_balance"),
            Some(true)
        );
        assert_eq!(classes.readonly_method("Room", "nope"), None);
        assert_eq!(classes.methods_of("Room").len(), 3);
    }

    #[test]
    fn unknown_methods_are_uniformly_rejected() {
        let runtime = AeonRuntime::builder().build().unwrap();
        let building = runtime
            .create_context(Box::new(Building), aeon_api::Placement::Auto)
            .unwrap();
        let client = runtime.client();
        let err = client
            .call(building, "no_such_method", args![])
            .unwrap_err();
        assert!(matches!(err, AeonError::UnknownMethod { class, method }
            if class == "Building" && method == "no_such_method"));
        runtime.shutdown();
    }
}
